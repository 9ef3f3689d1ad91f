//! `perfbench`: chronorank's end-to-end benchmark over loopback, with a
//! per-layer ledger in its traced mode. See README.md beside this crate.
//!
//! ```text
//! perfbench --workload <wire-zipf|exact-cold> --seed <n> --seconds <n> --trace <0|1>
//! ```
//!
//! The last stdout line is one JSON object: `correct`, `attempted`,
//! `failed`, and the end-to-end metrics (`--trace 0`) or the per-layer
//! metrics (`--trace 1`). Lines before it start with `#`. A wrong answer
//! or a failed operation exits 1 after printing; bad usage exits 2.

mod ledger;
mod spec;
mod stats;
mod wire;

use spec::Workload;
use stats::{median, Metric};
use std::io::{Read, Write};
use std::path::Path;
use std::process::ExitCode;
use std::time::{Duration, Instant};
use wire::{Expected, ServerProc, Tally};

const USAGE: &str =
    "usage: perfbench --workload <wire-zipf|exact-cold> --seed <n> --seconds <n> --trace <0|1>";

/// Where span dumps and run records land, relative to the working
/// directory (the repository root).
const OUT_DIR: &str = "perfbench/out";

struct Opts {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse(args: &[String]) -> Result<Opts, String> {
    let mut opts = Opts { workload: Workload::WireZipf, seed: 1, seconds: 10, trace: false };
    let mut workload = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("bad value {value:?} for {flag}");
        match flag.as_str() {
            "--workload" => workload = Some(Workload::parse(value).ok_or_else(bad)?),
            "--seed" => opts.seed = value.parse().map_err(|_| bad())?,
            "--seconds" => {
                opts.seconds = value.parse().map_err(|_| bad())?;
                if !(1..=600).contains(&opts.seconds) {
                    return Err(bad());
                }
            }
            "--trace" => {
                opts.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    opts.workload = workload.ok_or("--workload is required")?;
    Ok(opts)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().map(String::as_str) == Some("serve-child") {
        return serve_child(&args[1..]);
    }
    let opts = match parse(&args) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    match run(&opts) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::from(1)
        }
    }
}

/// The server process: generate the workload's data, build its engine
/// behind a `NetServer`, print `READY <addr>`, and serve until stdin
/// closes.
fn serve_child(args: &[String]) -> ExitCode {
    let opts = match parse(args) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("perfbench serve-child: {e}");
            return ExitCode::from(2);
        }
    };
    let set = spec::generate(opts.workload);
    let server =
        match chronorank_net::NetServer::start_serve(set, spec::serve_config(), spec::net_config())
        {
            Ok(s) => s,
            Err(e) => {
                eprintln!("perfbench serve-child: {e}");
                return ExitCode::from(1);
            }
        };
    let mut stdout = std::io::stdout();
    if writeln!(stdout, "READY {}", server.local_addr()).and_then(|()| stdout.flush()).is_err() {
        server.shutdown();
        return ExitCode::from(1);
    }
    let mut sink = Vec::new();
    let _ = std::io::stdin().read_to_end(&mut sink);
    server.shutdown();
    ExitCode::SUCCESS
}

/// One benchmark run; `Ok(false)` when an answer was wrong or an
/// operation failed (the result line is printed either way).
fn run(opts: &Opts) -> Result<bool, String> {
    let w = opts.workload;
    let seed = opts.seed;
    let t = Instant::now();
    let set = spec::generate(w);
    let generate_s = t.elapsed().as_secs_f64();
    let queries = spec::query_list(w, &set, seed);

    // The reference: a fresh in-process engine over the same set.
    let reference = chronorank_serve::ServeEngine::new(&set, spec::serve_config())
        .map_err(|e| format!("reference engine: {e}"))?;
    let expected = Expected::compute(&queries, |q| {
        reference.query(*q).map_err(|e| format!("reference query: {e}"))
    })?;
    let index_bytes = reference.report().index_bytes;
    drop(reference);

    // Set-up: the server process from spawn to ready, several times.
    let reps = if opts.trace { 1 } else { w.setups() };
    let mut setups = Vec::with_capacity(reps);
    let mut server = None;
    for r in 0..reps {
        let s = ServerProc::spawn(w, seed)?;
        setups.push(s.setup_secs);
        if r + 1 < reps {
            s.stop()?;
        } else {
            server = Some(s);
        }
    }
    let server = server.expect("at least one set-up");

    // The measured load.
    let cpu0 = server.cpu_secs()?;
    let secs = Duration::from_secs(opts.seconds);
    let mut tally = Tally::default();
    let lo =
        wire::closed_loop(server.addr, &queries, &expected, w.closed_loop(), secs / 10, secs, 24);
    tally.add(lo.tally);
    let cpu_us_per_op = (server.cpu_secs()? - cpu0) * 1e6 / tally.attempted.max(1) as f64;
    let (stats, metrics_text) = wire::scrape(server.addr)?;
    let rss_mib = server.peak_rss_mib()?;

    let ledger = if opts.trace {
        Some(ledger::run(&ledger::Inputs {
            workload: w,
            seed,
            set: &set,
            queries: &queries,
            expected: &expected,
            addr: server.addr,
        })?)
    } else {
        None
    };
    server.stop()?;
    if let Some(l) = &ledger {
        tally.add(l.tally);
    }
    let correct = tally.mismatched == 0 && tally.failed == 0;

    let record = format!(
        "{{\"workload\": {}, \"seed\": {seed}, \"seconds\": {}, \"trace\": {}, \"m\": {}, \
         \"n_segments\": {}, \"index_bytes\": {index_bytes}, \"wal\": {}, \"cores\": {}, \
         \"queries_listed\": {}, \"distinct_answers_checked\": {}, \"latency_samples\": {}, \
         \"setups\": [{}], \"server_stats\": {{\"queries\": {}, \"frames_in\": {}, \
         \"frames_out\": {}, \"busy_rejections\": {}, \"connections\": {}}}}}",
        stats::string(w.name()),
        opts.seconds,
        opts.trace,
        set.num_objects(),
        set.num_segments(),
        stats::string(if opts.trace { spec::WAL } else { "none" }),
        std::thread::available_parallelism().map_or(0, |n| n.get()),
        queries.len(),
        expected.distinct(),
        lo.samples(),
        setups.iter().map(|s| stats::num(*s)).collect::<Vec<_>>().join(", "),
        stats.queries,
        stats.frames_in,
        stats.frames_out,
        stats.busy_rejections,
        stats.connections,
    );
    println!("# run {record}");
    println!(
        "# attempted {} failed {} mismatched {} | server busy refusals {}",
        tally.attempted, tally.failed, tally.mismatched, stats.busy_rejections
    );

    let mut metrics = Vec::new();
    if let Some(l) = ledger {
        metrics.push(Metric::new("workloads.generate_s", generate_s, "s"));
        metrics.extend(l.metrics);
        metrics.push(Metric::new("bench.server_cpu_us_per_op", cpu_us_per_op, "us"));
        print_ledger(&metrics);
        write_out(&format!("{}-seed{seed}.spans.jsonl", w.name()), &spans_jsonl(&l.spans));
    } else {
        metrics.push(Metric::new("setup_s", median(&setups), "s"));
        metrics.push(Metric::new("qps", lo.qps(), "1/s"));
        metrics.push(Metric::new("p50_us", lo.latency_us(0.5), "us"));
        metrics.push(Metric::new("p99_us", lo.latency_us(0.99), "us"));
        metrics.push(Metric::new("server_rss_mb", rss_mib, "MiB"));
        for m in &metrics {
            println!("# {:<16} {:>14.3} {}", m.name, m.value, m.unit);
        }
    }
    write_out(
        &format!("{}-seed{seed}-trace{}.run.json", w.name(), u8::from(opts.trace)),
        &format!("{record}\n"),
    );
    write_out(&format!("{}-seed{seed}.metrics.txt", w.name()), &metrics_text);
    println!("{}", stats::result_line(correct, tally.attempted, tally.failed, &metrics));
    Ok(correct)
}

/// Print the ledger: the layers of the mean round trip, then the rest.
fn print_ledger(metrics: &[Metric]) {
    let get = |name: &str| metrics.iter().find(|m| m.name == name).map_or(0.0, |m| m.value);
    let terms = ["core.query_us", "serve.self_us", "net.codec_us", "net.unattributed_us"];
    let rtt = get("net.rtt_us");
    println!(
        "# ledger (mean µs, p99-trimmed): core {:.1} + serve.self {:.1} + net.codec {:.1} \
         + net.unattributed {:.1} + remainder {:.3} = net.rtt {:.1}",
        get(terms[0]),
        get(terms[1]),
        get(terms[2]),
        get(terms[3]),
        rtt - terms.iter().map(|t| get(t)).sum::<f64>(),
        rtt,
    );
    for m in metrics {
        println!("# {:<30} {:>14.4} {}", m.name, m.value, m.unit);
    }
}

fn spans_jsonl(spans: &[ledger::Span]) -> String {
    let mut out = String::new();
    for s in spans {
        out.push_str(&format!(
            "{{\"query\": {}, \"name\": {}, \"parent\": {}, \"start_ns\": {}, \"end_ns\": {}}}\n",
            s.query,
            stats::string(s.name),
            s.parent.map_or("null".to_string(), stats::string),
            s.start_ns,
            s.end_ns
        ));
    }
    out
}

/// Best effort: a run whose side files cannot be written still reports.
fn write_out(name: &str, body: &str) {
    let dir = Path::new(OUT_DIR);
    if let Err(e) = std::fs::create_dir_all(dir).and_then(|()| std::fs::write(dir.join(name), body))
    {
        eprintln!("perfbench: could not write {OUT_DIR}/{name}: {e}");
    }
}
