//! The repository benchmark: three seeded workloads, their end-to-end
//! metrics, and a traced run that breaks them down by layer.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload sweep-paper --seed 42 --seconds 10 --trace 0
//! ```
//!
//! The last line of standard output is one JSON object: `correct`,
//! `attempted`, `failed` and the metrics named in `BENCHMARK.json`
//! (end-to-end with `--trace 0`, per-layer with `--trace 1`). The lines
//! before it are the human-readable tables and one JSON row of run
//! metadata. See `perfbench/README.md`.

mod report;
mod session;
mod stats;
mod sweep;
mod trace;

use report::Report;
use session::{Exchange, Kind, Latencies, LayerReplay, Player, Service};
use stats::{median, peak_rss_mb, Samples};
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::{Duration, Instant};
use trace::Recorder;

/// The seed the golden files were written for.
pub const GOLDEN_SEED: u64 = 42;

/// Set-ups per run; `setup_s` is their median.
const SETUP_REPS: usize = 9;

/// Distinct session scripts per run (the client cycles through them).
const SCRIPTS: usize = 32;

const GOLDEN_SWEEP: &str = include_str!("../golden/sweep-paper.txt");
const GOLDEN_SATURATE: &str = include_str!("../golden/session-saturate-ecdf.txt");
const GOLDEN_CHURN: &str = include_str!("../golden/session-churn-amc.txt");

pub const WORKLOADS: [&str; 3] = ["sweep-paper", "session-saturate-ecdf", "session-churn-amc"];

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
    write_golden: bool,
    /// Sweep task sets per `UB` bucket.
    sets_per_bucket: usize,
    /// Distinct session scripts.
    scripts: usize,
    setup_reps: usize,
}

impl Args {
    /// The golden files hold the full-size runs of [`GOLDEN_SEED`].
    fn golden(&self) -> bool {
        self.seed == GOLDEN_SEED
            && self.sets_per_bucket == sweep::SETS_PER_BUCKET
            && !self.write_golden
    }
}

const USAGE: &str =
    "usage: mcsched-perfbench --workload <sweep-paper|session-saturate-ecdf|session-churn-amc> \
--seed <n> --seconds <n> --trace <0|1> [--write-golden]";

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: GOLDEN_SEED,
        seconds: 10,
        trace: false,
        write_golden: false,
        sets_per_bucket: sweep::SETS_PER_BUCKET,
        scripts: SCRIPTS,
        setup_reps: SETUP_REPS,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        if flag == "--write-golden" {
            args.write_golden = true;
            continue;
        }
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let number = || value.parse::<u64>().map_err(|e| format!("{flag}: {e}"));
        match flag.as_str() {
            "--workload" => args.workload = value.clone(),
            "--seed" => args.seed = number()?,
            "--seconds" => args.seconds = number()?.max(1),
            "--trace" => args.trace = number()? == 1,
            other => return Err(format!("unknown flag {other}")),
        }
    }
    if !WORKLOADS.contains(&args.workload.as_str()) {
        return Err(format!("unknown workload `{}`", args.workload));
    }
    Ok(args)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let scratch = PathBuf::from(".bench_tmp").join(format!(
        "{}-{}-{}",
        args.workload,
        args.seed,
        std::process::id()
    ));
    if let Err(e) = std::fs::create_dir_all(&scratch) {
        eprintln!("cannot create {}: {e}", scratch.display());
        return ExitCode::FAILURE;
    }
    let result = run(&args, &scratch);
    let _ = std::fs::remove_dir_all(&scratch);
    let _ = std::fs::remove_dir(".bench_tmp");
    match result {
        Ok(report) => {
            report.print(args.trace);
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("benchmark failed: {e}");
            ExitCode::FAILURE
        }
    }
}

fn run(args: &Args, scratch: &Path) -> std::io::Result<Report> {
    match args.workload.as_str() {
        "sweep-paper" => Ok(run_sweep(args)),
        "session-saturate-ecdf" => run_session(args, Kind::SaturateEcdf, scratch),
        _ => run_session(args, Kind::ChurnAmc, scratch),
    }
}

/// The common end-to-end latency metrics.
fn latency_metrics(report: &mut Report, all: &Samples, accept: &Samples, reject: &Samples) {
    report.e2e_quantiles("latency", all);
    report.e2e_quantiles("accept", accept);
    report.e2e_quantiles("reject", reject);
}

// ------------------------------------------------------------ sweep-paper

fn run_sweep(args: &Args) -> Report {
    let mut report = Report::new(&args.workload, args.seed, args.seconds);
    let sets = args.sets_per_bucket;
    let mut setups = Vec::new();
    let mut bench = None;
    for _ in 0..args.setup_reps {
        // Line-up, grid, and a warm-up round of one set per bucket.
        let t0 = Instant::now();
        let s = sweep::Sweep::new();
        s.warm_up();
        setups.push(t0.elapsed().as_secs_f64());
        bench = Some(s);
    }
    let bench = bench.expect("at least one set-up");
    report.e2e("setup_s", median(&setups), "s", setups.len());

    let budget = if args.trace {
        Duration::from_secs(args.seconds).div_f64(2.0)
    } else {
        Duration::from_secs(args.seconds)
    };
    let mut rounds = Vec::new();
    let mut walls = Vec::new();
    let (mut item, mut accept, mut reject) =
        (Samples::default(), Samples::default(), Samples::default());
    let t0 = Instant::now();
    while rounds.is_empty() || t0.elapsed() < budget {
        let r0 = Instant::now();
        let round = bench.round(sets, args.seed, None);
        walls.push(r0.elapsed().as_secs_f64());
        item.extend(&round.item);
        accept.extend(&round.accept);
        reject.extend(&round.reject);
        rounds.push(round.cells);
    }
    let judged = item.len();
    // Every round judges the same corpus: the median round time resists
    // a stall of the machine during one round.
    let per_round = judged as f64 / rounds.len() as f64;
    report.e2e("ops_per_s", per_round / median(&walls), "1/s", walls.len());
    latency_metrics(&mut report, &item, &accept, &reject);
    report.e2e("peak_rss_mb", peak_rss_mb(), "MB", 1);
    report.attempted = judged as u64;
    report.sample("rounds", rounds.len());

    // Correctness, outside the timed region: every round against the
    // sweep itself, and the default seed against the golden file.
    let reference = sweep::reference_cells(sets, args.seed, bench.threads());
    for cells in &rounds {
        report.failed += sweep::mismatches_vs_reference(cells, &reference);
    }
    if args.write_golden {
        write_golden(
            "sweep-paper.txt",
            &sweep::golden_text(&rounds[0], args.seed),
        );
    } else if args.golden() {
        let wrong = sweep::mismatches_vs_golden(&rounds[0], GOLDEN_SWEEP);
        report.check("golden accept counts", wrong == 0);
        report.failed += wrong;
    }
    report.check(
        "every round equals fig4_panel/fig5_panel",
        rounds
            .iter()
            .all(|c| sweep::mismatches_vs_reference(c, &reference) == 0),
    );
    report.digest = format!(
        "{:016x}",
        stats::fnv1a(sweep::golden_text(&rounds[0], args.seed).as_bytes())
    );

    if args.trace {
        let epoch = Instant::now();
        let r0 = Instant::now();
        let traced = bench.round(sets, args.seed, Some(epoch));
        let traced_wall = r0.elapsed().as_secs_f64();
        let same = traced.cells == rounds[0];
        report.check("traced verdicts equal untraced", same);
        if !same {
            report.failed += 1;
        }
        sweep_layers(&mut report, &traced, bench.threads());
        report.layer(
            "trace.overhead_pct",
            (traced_wall / median(&walls) - 1.0) * 100.0,
            "%",
            walls.len(),
        );
    }
    report
}

fn sweep_layers(report: &mut Report, round: &sweep::Round, threads: usize) {
    let l = round.layers.as_ref().expect("traced round records layers");
    let rec = &l.recorder;
    let table = rec.layers();
    let busy = |name: &str| table.get(name).map_or(0.0, trace::LayerRow::busy_ms);
    let gen_spans = table.get("gen.generate").map_or(0, |r| r.durations.len());
    report.layer("gen.calls", l.gen_calls as f64, "count", 1);
    report.layer("gen.yield", ratio(l.gen_ok, l.gen_calls), "ratio", 1);
    report.layer("gen.busy_ms", busy("gen.generate"), "ms", gen_spans);
    let wall = busy("exp.engine.run_batch");
    let items = busy("exp.engine.item");
    report.layer("exp.engine.wall_ms", wall, "ms", 1);
    report.layer(
        "exp.engine.parallel_efficiency",
        if wall > 0.0 {
            items / (threads as f64 * wall)
        } else {
            0.0
        },
        "ratio",
        1,
    );
    let item_self = table.get("exp.engine.item").map_or(0, |r| r.self_ns);
    report.note(format!(
        "exp.engine.item self time (evaluator bookkeeping): {:.3} ms",
        item_self as f64 / 1e6
    ));
    // Every algorithm judges every task set of the round.
    let calls: usize = round.cells.iter().map(|c| c.total).sum();
    for (i, name) in mcsched_exp::algorithms::FIG4_NAMES.iter().enumerate() {
        let span = format!("core.partition.{name}");
        let accepts: usize = round.cells.iter().map(|c| c.accepts[i]).sum();
        report.layer(&format!("{span}.busy_ms"), busy(&span), "ms", calls);
        report.layer(
            &format!("{span}.accept_ratio"),
            ratio(accepts as u64, calls as u64),
            "ratio",
            calls,
        );
    }
    analysis_layers(report, &l.stats);
    report.write_spans(rec);
}

fn analysis_layers(report: &mut Report, s: &mcsched_analysis::AdmissionStats) {
    report.layer("analysis.attempts", s.attempts as f64, "count", 1);
    report.layer("analysis.admits", s.admits as f64, "count", 1);
    report.layer(
        "analysis.probe_yield",
        ratio(s.admits, s.attempts),
        "ratio",
        1,
    );
    report.layer("analysis.full", s.full as f64, "count", 1);
    report.layer("analysis.qpa_cold", s.qpa_cold as f64, "count", 1);
    report.layer("analysis.qpa_resumed", s.qpa_resumed as f64, "count", 1);
    report.layer(
        "analysis.qpa_anchor_hits",
        s.qpa_anchor_hits as f64,
        "count",
        1,
    );
    report.layer("analysis.rta_seeded", s.rta_seeded as f64, "count", 1);
}

fn ratio(a: u64, b: u64) -> f64 {
    if b == 0 {
        0.0
    } else {
        a as f64 / b as f64
    }
}

fn write_golden(file: &str, text: &str) {
    let path = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("golden")
        .join(file);
    match std::fs::write(&path, text) {
        Ok(()) => eprintln!("wrote {}", path.display()),
        Err(e) => eprintln!("cannot write {}: {e}", path.display()),
    }
}

// ------------------------------------------------------------ sessions

fn run_session(args: &Args, kind: Kind, scratch: &Path) -> std::io::Result<Report> {
    let mut report = Report::new(&args.workload, args.seed, args.seconds);
    let journal_path = scratch.join("server.journal");
    let mut setups = Vec::new();
    let mut live: Option<(
        Service,
        session::Client,
        Vec<session::Script>,
        session::GenStats,
    )> = None;
    for _ in 0..args.setup_reps {
        if let Some((old, client, ..)) = live.take() {
            // The worker serves a connection until its client hangs up.
            drop(client);
            old.stop()?;
        }
        // Scripts, server bind, connect, and one session open.
        let t0 = Instant::now();
        let (scripts, gen) = session::make_scripts(kind, args.seed, args.scripts);
        let service = Service::start(kind, &journal_path)?;
        let mut client = service.connect()?;
        let open =
            mcsched_exp::protocol::Envelope::new(mcsched_exp::protocol::Request::OpenSession {
                algorithm: kind.algorithm().to_owned(),
                m: session::M,
                session: None,
            });
        client.call(&open.render())?;
        setups.push(t0.elapsed().as_secs_f64());
        live = Some((service, client, scripts, gen));
    }
    let (service, mut client, scripts, gen) = live.expect("at least one set-up");
    report.e2e("setup_s", median(&setups), "s", setups.len());

    let budget = if args.trace {
        Duration::from_secs(args.seconds).div_f64(2.0)
    } else {
        Duration::from_secs(args.seconds)
    };
    let t0 = Instant::now();
    let mut lat = Latencies::new(t0);
    let mut runs = Vec::new();
    let mut iteration = 0u64;
    while runs.is_empty() || t0.elapsed() < budget {
        let slot = (iteration % args.scripts as u64) as usize;
        let player = Player::new(kind, &scripts[slot], slot, iteration);
        let run = session::run_session(&mut client, player, false, &mut lat, None);
        iteration += 1;
        let broken = run.io_failures > 0;
        runs.push(run);
        if broken {
            break;
        }
    }
    let wall = t0.elapsed();
    let requests = lat.all.len();
    let rate = lat.rate(wall);
    report.e2e("ops_per_s", rate, "1/s", lat.windows());
    latency_metrics(&mut report, &lat.all, &lat.accept, &lat.reject);
    report.e2e("peak_rss_mb", peak_rss_mb(), "MB", 1);
    report.info_quantiles("remove", &lat.remove);
    report.info_quantiles("query", &lat.query);
    report.sample("sessions", runs.len());
    report.attempted = requests as u64 + runs.iter().map(|r| r.io_failures).sum::<u64>();

    // Correctness, outside the timed region: every reply against the
    // golden codes (default seed) or the clone-and-retest oracle.
    let used = if args.write_golden {
        args.scripts
    } else {
        runs.len().min(args.scripts)
    };
    let expected: Vec<Vec<u8>> = if args.golden() {
        let golden = match kind {
            Kind::SaturateEcdf => GOLDEN_SATURATE,
            Kind::ChurnAmc => GOLDEN_CHURN,
        };
        session::parse_golden(golden)
    } else {
        (0..used)
            .map(|slot| session::oracle_codes(kind, &scripts[slot], slot))
            .collect()
    };
    if args.write_golden {
        let file = format!("{}.txt", args.workload);
        write_golden(&file, &session::golden_text(kind, args.seed, &expected));
    }
    let mut wrong = 0;
    for run in &runs {
        let want = expected.get(run.slot).map_or(&[][..], Vec::as_slice);
        wrong += session::code_mismatches(&run.codes, want) + run.io_failures;
    }
    report.failed += wrong;
    report.check(
        if args.golden() {
            "replies equal golden codes"
        } else {
            "replies equal oracle"
        },
        wrong == 0,
    );
    let cycle: Vec<u8> = runs
        .iter()
        .take(args.scripts)
        .flat_map(|r| r.codes.clone())
        .collect();
    report.digest = format!("{:016x}", stats::fnv1a(&cycle));

    if args.trace {
        gen_layers(&mut report, gen);
        let untraced = Untraced {
            next_iteration: iteration,
            codes: cycle,
            rate,
        };
        let slots = runs.len().min(args.scripts);
        session_trace(
            kind,
            &mut report,
            &mut client,
            &scripts[..slots],
            &untraced,
            scratch,
        )?;
    }
    drop(client);
    service.stop()?;
    Ok(report)
}

/// What the traced pass is held against.
struct Untraced {
    /// The next session iteration, so `op_id`s stay unique.
    next_iteration: u64,
    /// Reply codes of the first use of each script slot.
    codes: Vec<u8>,
    /// Requests answered per second.
    rate: f64,
}

fn gen_layers(report: &mut Report, gen: session::GenStats) {
    report.layer("gen.calls", gen.calls as f64, "count", 1);
    report.layer("gen.yield", ratio(gen.ok, gen.calls), "ratio", 1);
    report.layer(
        "gen.busy_ms",
        gen.busy.as_secs_f64() * 1e3,
        "ms",
        gen.calls as usize,
    );
}

fn session_trace(
    kind: Kind,
    report: &mut Report,
    client: &mut session::Client,
    scripts: &[session::Script],
    untraced: &Untraced,
    scratch: &Path,
) -> std::io::Result<()> {
    let mut rec = Recorder::new(Instant::now());
    // The script slots the untraced pass covered, again over TCP with one
    // span per round trip.
    let t0 = Instant::now();
    let mut lat = Latencies::new(t0);
    let mut exchanges: Vec<Exchange> = Vec::new();
    let mut codes: Vec<u8> = Vec::new();
    for (slot, script) in scripts.iter().enumerate() {
        let player = Player::new(kind, script, slot, untraced.next_iteration + slot as u64);
        let run = session::run_session(client, player, true, &mut lat, Some(&mut rec));
        codes.extend(&run.codes);
        exchanges.extend(run.exchanges.unwrap_or_default());
        if run.io_failures > 0 {
            report.failed += run.io_failures;
            break;
        }
    }
    let traced_rate = lat.rate(t0.elapsed());
    let same = codes == untraced.codes;
    report.check("traced verdicts equal untraced", same);
    if !same {
        report.failed += 1;
    }

    // Per-layer replays of the traced cycle's exchanges.
    let mut layers = LayerReplay::default();
    session::replay_cluster(kind, &exchanges, &mut layers, &mut rec);
    session::replay_protocol(&exchanges, &mut layers, &mut rec);
    session::replay_server(
        kind,
        &exchanges,
        &scratch.join("replay-server.journal"),
        &mut layers,
        &mut rec,
    )?;
    session::replay_journal(
        kind,
        &exchanges,
        &scratch.join("replay-journal.journal"),
        &mut layers,
        &mut rec,
    )?;
    report.check(
        "layer replays reproduce every reply",
        layers.mismatches == 0,
    );
    report.failed += layers.mismatches;

    let n = exchanges.len();
    analysis_layers(report, &layers.analysis);
    report.layer_quantiles("core.cluster.accept", &layers.cluster_accept);
    report.layer_quantiles("core.cluster.reject", &layers.cluster_reject);
    report.layer_quantiles("core.cluster.remove", &layers.cluster_remove);
    report.layer_quantiles("core.cluster.probe", &layers.cluster_probe);
    report.layer(
        "core.cluster.processors_tried",
        ratio(layers.processors_tried, layers.admit_calls),
        "tries/admit",
        layers.admit_calls as usize,
    );
    let per = |ns: &[u64]| {
        let mut s = Samples::default();
        ns.iter().for_each(|&x| s.push_ns(x));
        s
    };
    let parse = per(&layers.parse_ns);
    let render = per(&layers.render_ns);
    let server = per(&layers.server_ns);
    report.layer(
        "exp.protocol.parse_p50_us",
        parse.p50_us(),
        "us",
        parse.len(),
    );
    report.layer(
        "exp.protocol.render_p50_us",
        render.p50_us(),
        "us",
        render.len(),
    );
    report.layer(
        "exp.protocol.bytes_in",
        layers.bytes_in as f64 / n.max(1) as f64,
        "B/req",
        n,
    );
    report.layer(
        "exp.protocol.bytes_out",
        layers.bytes_out as f64 / n.max(1) as f64,
        "B/req",
        n,
    );
    report.layer_quantiles("exp.server.request", &server);
    let mut own = Samples::default();
    for i in 0..n {
        let children =
            layers.cluster_ns[i] + layers.parse_ns[i] + layers.render_ns[i] + layers.journal_ns[i];
        own.push_ns(layers.server_ns[i].saturating_sub(children));
    }
    report.layer("exp.server.self_p50_us", own.p50_us(), "us", own.len());
    let appends = layers.journal.appended;
    report.layer("exp.journal.appends", appends as f64, "count", 1);
    report.layer(
        "exp.journal.bytes",
        ratio(layers.journal_bytes, appends),
        "B/append",
        appends as usize,
    );
    report.layer(
        "exp.journal.compactions",
        layers.journal.compactions as f64,
        "count",
        1,
    );
    report.layer(
        "exp.journal.append_p50_us",
        layers.journal_append.p50_us(),
        "us",
        layers.journal_append.len(),
    );
    report.layer("netframe.rtt_p50_us", lat.all.p50_us(), "us", lat.all.len());
    report.layer(
        "netframe.overhead_p50_us",
        lat.all.p50_us() - server.p50_us(),
        "us",
        lat.all.len(),
    );
    report.layer(
        "trace.overhead_pct",
        (untraced.rate / traced_rate - 1.0) * 100.0,
        "%",
        lat.all.len(),
    );
    report.write_spans(&rec);
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny(workload: &str, seed: u64, trace: bool) -> Args {
        Args {
            workload: workload.to_owned(),
            seed,
            seconds: 1,
            trace,
            write_golden: false,
            sets_per_bucket: 2,
            scripts: 2,
            setup_reps: 2,
        }
    }

    fn run_tiny(args: &Args) -> Report {
        let scratch = Path::new(env!("CARGO_MANIFEST_DIR")).join(format!(
            "../.bench_tmp/test-{}-{}-{}",
            args.workload,
            args.seed,
            u8::from(args.trace)
        ));
        std::fs::create_dir_all(&scratch).expect("scratch directory");
        let report = run(args, &scratch).expect("tiny run");
        let _ = std::fs::remove_dir_all(&scratch);
        report
    }

    fn assert_clean(report: &Report, traced: bool) {
        assert!(report.correct(), "{report:?}");
        assert_eq!(report.failed, 0);
        assert!(report.attempted > 0);
        let line = report.result_line(traced);
        let names: &[&str] = if traced {
            &report::PER_LAYER
        } else {
            &report::END_TO_END
        };
        for name in names {
            assert!(
                line.contains(&format!("\"{name}\": {{\"value\"")),
                "{name} in {line}"
            );
        }
    }

    #[test]
    fn every_workload_is_correct_at_a_tiny_size() {
        for workload in WORKLOADS {
            for traced in [false, true] {
                let report = run_tiny(&tiny(workload, 7, traced));
                assert_clean(&report, traced);
            }
        }
    }

    #[test]
    fn session_replies_match_the_golden_codes_of_the_default_seed() {
        for workload in ["session-saturate-ecdf", "session-churn-amc"] {
            let mut args = tiny(workload, GOLDEN_SEED, false);
            args.sets_per_bucket = sweep::SETS_PER_BUCKET;
            assert!(args.golden());
            assert_clean(&run_tiny(&args), false);
        }
    }

    #[test]
    fn session_streams_match_the_oracle_bit_for_bit() {
        for kind in [Kind::SaturateEcdf, Kind::ChurnAmc] {
            let (a, _) = session::make_scripts(kind, 3, 2);
            let (b, _) = session::make_scripts(kind, 3, 2);
            assert_eq!(a, b, "scripts are a function of the seed");
            let dir = Path::new(env!("CARGO_MANIFEST_DIR"))
                .join(format!("../.bench_tmp/test-stream-{kind:?}"));
            std::fs::create_dir_all(&dir).expect("scratch directory");
            let service = Service::start(kind, &dir.join("j")).expect("server");
            let mut client = service.connect().expect("connect");
            let mut lat = Latencies::new(Instant::now());
            for (slot, script) in a.iter().enumerate() {
                let player = Player::new(kind, script, slot, slot as u64);
                let run = session::run_session(&mut client, player, false, &mut lat, None);
                assert_eq!(
                    run.codes,
                    session::oracle_codes(kind, script, slot),
                    "{kind:?} slot {slot}"
                );
                assert!(run.codes.iter().all(|&c| c != b'?'));
            }
            drop(client);
            service.stop().expect("clean shutdown");
            let _ = std::fs::remove_dir_all(&dir);
        }
    }
}
