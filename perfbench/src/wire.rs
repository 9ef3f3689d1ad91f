//! The loopback side: the server process, the closed-loop load generator,
//! and the end-of-run STATS / METRICS scrape.

use crate::spec::Workload;
use crate::stats::quantile;
use chronorank_core::TopK;
use chronorank_net::{NetClient, Response, StatsBody};
use chronorank_serve::ServeQuery;
use std::collections::HashMap;
use std::io::{BufRead, BufReader};
use std::net::SocketAddr;
use std::process::{Child, ChildStdin, Command, Stdio};
use std::time::{Duration, Instant};

/// A server running in a child process of this binary (`serve-child`).
/// It serves until its stdin closes; dropping the handle kills it.
pub struct ServerProc {
    child: Child,
    stdin: Option<ChildStdin>,
    pub addr: SocketAddr,
    /// Spawn to "ready": data generation, index builds, bind.
    pub setup_secs: f64,
}

impl ServerProc {
    pub fn spawn(w: Workload, seed: u64) -> Result<Self, String> {
        let exe = std::env::current_exe().map_err(|e| format!("current exe: {e}"))?;
        let t0 = Instant::now();
        let mut child = Command::new(exe)
            .args(["serve-child", "--workload", w.name(), "--seed", &seed.to_string()])
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .stderr(Stdio::inherit())
            .spawn()
            .map_err(|e| format!("spawn server: {e}"))?;
        let stdin = child.stdin.take();
        let stdout = child.stdout.take().expect("stdout is piped");
        let mut line = String::new();
        let read = BufReader::new(stdout).read_line(&mut line);
        let setup_secs = t0.elapsed().as_secs_f64();
        // Own the child before checking the handshake, so a server that
        // failed to come up is still killed on drop.
        let mut proc =
            Self { child, stdin, addr: SocketAddr::from(([127, 0, 0, 1], 0)), setup_secs };
        read.map_err(|e| format!("server handshake: {e}"))?;
        proc.addr = line
            .trim()
            .strip_prefix("READY ")
            .and_then(|a| a.parse().ok())
            .ok_or_else(|| format!("server did not come up (said {line:?})"))?;
        Ok(proc)
    }

    /// Peak resident set of the server process, in MiB.
    pub fn peak_rss_mib(&self) -> Result<f64, String> {
        let path = format!("/proc/{}/status", self.child.id());
        let status = std::fs::read_to_string(&path).map_err(|e| format!("{path}: {e}"))?;
        status
            .lines()
            .find_map(|l| l.strip_prefix("VmHWM:"))
            .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
            .map(|kib| kib / 1024.0)
            .ok_or_else(|| format!("no VmHWM in {path}"))
    }

    /// CPU time (user + system) the server process has used, in seconds.
    pub fn cpu_secs(&self) -> Result<f64, String> {
        let path = format!("/proc/{}/stat", self.child.id());
        let stat = std::fs::read_to_string(&path).map_err(|e| format!("{path}: {e}"))?;
        // Fields after the parenthesised command name; utime and stime are
        // fields 14 and 15 of the whole line, in USER_HZ (100/s) ticks.
        let rest =
            stat.rsplit_once(')').map(|(_, r)| r).ok_or_else(|| format!("{path}: bad format"))?;
        let f: Vec<&str> = rest.split_whitespace().collect();
        let tick = |i: usize| {
            f.get(i)
                .and_then(|v| v.parse::<u64>().ok())
                .ok_or_else(|| format!("{path}: bad format"))
        };
        Ok((tick(11)? + tick(12)?) as f64 / 100.0)
    }

    /// Close the server's stdin and wait for a clean exit.
    pub fn stop(mut self) -> Result<(), String> {
        drop(self.stdin.take());
        let deadline = Instant::now() + Duration::from_secs(30);
        loop {
            match self.child.try_wait() {
                Ok(Some(status)) if status.success() => return Ok(()),
                Ok(Some(status)) => return Err(format!("server exited with {status}")),
                Ok(None) if Instant::now() < deadline => {
                    std::thread::sleep(Duration::from_millis(5))
                }
                Ok(None) => return Err("server did not stop within 30 s".to_string()),
                Err(e) => return Err(format!("wait for server: {e}")),
            }
        }
    }
}

impl Drop for ServerProc {
    fn drop(&mut self) {
        if matches!(self.child.try_wait(), Ok(None)) {
            let _ = self.child.kill();
        }
        let _ = self.child.wait();
    }
}

/// The reference answer of every query in a list, each distinct query
/// computed once.
pub struct Expected {
    answers: Vec<TopK>,
    slot: Vec<u32>,
}

impl Expected {
    pub fn compute(
        queries: &[ServeQuery],
        answer: impl Fn(&ServeQuery) -> Result<TopK, String>,
    ) -> Result<Self, String> {
        let mut seen: HashMap<(u64, u64, usize, Option<u64>), u32> = HashMap::new();
        let mut answers = Vec::new();
        let mut slot = Vec::with_capacity(queries.len());
        for q in queries {
            let key = (q.t1.to_bits(), q.t2.to_bits(), q.k, q.tolerance.map(|t| t.eps.to_bits()));
            let next = answers.len() as u32;
            let at = *seen.entry(key).or_insert(next);
            if at == next {
                answers.push(answer(q)?);
            }
            slot.push(at);
        }
        Ok(Self { answers, slot })
    }

    pub fn of(&self, i: usize) -> &TopK {
        &self.answers[self.slot[i] as usize]
    }

    pub fn distinct(&self) -> usize {
        self.answers.len()
    }
}

/// Bit-identical answers: same ids in the same order, same score bits.
pub fn same_answer(a: &TopK, b: &TopK) -> bool {
    a.len() == b.len()
        && a.entries()
            .iter()
            .zip(b.entries())
            .all(|(x, y)| x.0 == y.0 && x.1.to_bits() == y.1.to_bits())
}

/// Operation accounting shared by the load generators.
#[derive(Debug, Default, Clone, Copy)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
    pub mismatched: u64,
}

impl Tally {
    pub fn add(&mut self, o: Tally) {
        self.attempted += o.attempted;
        self.failed += o.failed;
        self.mismatched += o.mismatched;
    }
}

/// What a closed-loop run measured.
pub struct LoopOutcome {
    /// Send-to-answer latencies (µs) of the queries answered in each
    /// equal slice of the measured window.
    pub slices: Vec<Vec<f64>>,
    pub slice_secs: f64,
    pub tally: Tally,
}

impl LoopOutcome {
    /// Answers per second of the better-quartile slice (the 75th
    /// percentile over the slices; see [`slice_quantile`] for why).
    pub fn qps(&self) -> f64 {
        let rates: Vec<f64> =
            self.slices.iter().map(|s| s.len() as f64 / self.slice_secs).collect();
        quantile(&rates, 0.75)
    }

    pub fn latency_us(&self, q: f64) -> f64 {
        slice_quantile(&self.slices, q)
    }

    pub fn samples(&self) -> usize {
        self.slices.iter().map(Vec::len).sum()
    }
}

/// The better-quartile slice's `q`-quantile: each slice's `q`-quantile,
/// then the 25th percentile of those. On a shared host, interference
/// (steal, a noisy neighbour) only ever slows a slice, so a run where it
/// hits up to three quarters of the slices still reads the same.
fn slice_quantile(slices: &[Vec<f64>], q: f64) -> f64 {
    let per_slice: Vec<f64> = slices.iter().map(|s| quantile(s, q)).collect();
    quantile(&per_slice, 0.25)
}

/// Closed loop: `conns` connections (one thread each), each keeping
/// `depth` queries in flight, walking `queries` (cycled) from its own
/// offset. The first `warmup` is not measured. Every answer is checked
/// against `expected`; an error frame or a broken connection fails the
/// queries concerned, and nothing is retried.
pub fn closed_loop(
    addr: SocketAddr,
    queries: &[ServeQuery],
    expected: &Expected,
    (conns, depth): (usize, usize),
    warmup: Duration,
    measure: Duration,
    slices: usize,
) -> LoopOutcome {
    let start = Instant::now();
    let warm_end = start + warmup;
    let slice = measure / slices as u32;
    let drive =
        |c: usize| drive_conn(addr, queries, expected, c, conns, depth, warm_end, slice, slices);
    let outcomes: Vec<(Vec<Vec<f64>>, Tally)> = std::thread::scope(|s| {
        let others: Vec<_> = (1..conns).map(|c| s.spawn(move || drive(c))).collect();
        let mut all = vec![drive(0)];
        all.extend(others.into_iter().map(|h| h.join().expect("load thread panicked")));
        all
    });
    let mut out = LoopOutcome {
        slices: vec![Vec::new(); slices],
        slice_secs: slice.as_secs_f64(),
        tally: Tally::default(),
    };
    for (per_slice, tally) in outcomes {
        for (a, b) in out.slices.iter_mut().zip(per_slice) {
            a.extend(b);
        }
        out.tally.add(tally);
    }
    out
}

#[allow(clippy::too_many_arguments)]
fn drive_conn(
    addr: SocketAddr,
    queries: &[ServeQuery],
    expected: &Expected,
    offset: usize,
    stride: usize,
    depth: usize,
    warm_end: Instant,
    slice: Duration,
    slices: usize,
) -> (Vec<Vec<f64>>, Tally) {
    let end = warm_end + slice * slices as u32;
    let mut latencies = vec![Vec::new(); slices];
    let mut tally = Tally::default();
    let mut client = match NetClient::connect(addr) {
        Ok(c) => c,
        Err(_) => {
            tally.attempted += 1;
            tally.failed += 1;
            return (latencies, tally);
        }
    };
    let mut in_flight: HashMap<u64, (usize, Instant)> = HashMap::with_capacity(depth);
    let mut next = offset;
    loop {
        while in_flight.len() < depth && Instant::now() < end {
            let qi = next % queries.len();
            next += stride;
            tally.attempted += 1;
            match client.send_topk(queries[qi]) {
                Ok(id) => {
                    in_flight.insert(id, (qi, Instant::now()));
                }
                Err(_) => {
                    tally.failed += 1 + in_flight.len() as u64;
                    return (latencies, tally);
                }
            }
        }
        if in_flight.is_empty() {
            return (latencies, tally);
        }
        let got = client.recv();
        let done = Instant::now();
        let Ok((id, resp)) = got else {
            tally.failed += in_flight.len() as u64;
            return (latencies, tally);
        };
        let Some((qi, sent)) = in_flight.remove(&id) else {
            // A connection-scoped error (id 0) or a foreign id: the
            // connection is no longer usable.
            tally.failed += in_flight.len() as u64;
            return (latencies, tally);
        };
        match resp {
            Response::TopK(r) => {
                if !same_answer(&r.topk, expected.of(qi)) {
                    tally.mismatched += 1;
                }
                if done >= warm_end && done < end {
                    let at = (done.duration_since(warm_end).as_nanos() / slice.as_nanos()) as usize;
                    latencies[at.min(slices - 1)]
                        .push(done.duration_since(sent).as_secs_f64() * 1e6);
                }
            }
            _ => tally.failed += 1,
        }
    }
}

/// The server's own counters at the end of a run.
pub fn scrape(addr: SocketAddr) -> Result<(StatsBody, String), String> {
    let mut client = NetClient::connect(addr).map_err(|e| format!("scrape connect: {e}"))?;
    let stats = client.stats().map_err(|e| format!("STATS: {e}"))?;
    let metrics = client.metrics().map_err(|e| format!("METRICS: {e}"))?;
    Ok((stats, metrics))
}
