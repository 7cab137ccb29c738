//! Lifecycle benchmark of the out-of-core KNN engine.
//!
//! ```text
//! cargo run --release --offline --quiet --manifest-path lifebench/Cargo.toml -- \
//!     --workload <ooc_disk|sharded_mem> \
//!     --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Run from the repository root. The last line of standard output is
//! one JSON object: `correct`, `attempted`, `failed` and `metrics` —
//! the end-to-end metrics with `--trace 0`, the per-layer metrics of
//! the traced run with `--trace 1`. Details (configuration, sample
//! counts, graph digest) go to standard error and to
//! `.bench_out/<workload>-<seed>-trace<t>.json`; the traced run also
//! writes its spans to `.bench_out/<workload>-<seed>.spans.jsonl`.
//! See `lifebench/README.md` for what each workload and metric means.

mod load;
mod run;
mod spec;
mod timing;
mod trace;
mod util;

use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Duration;

use knn_datasets::Workload;

use crate::run::Pass;
use crate::spec::Spec;
use crate::trace::Tracer;
use crate::util::{median, peak_rss_mb, JsonObject, Tail};

const MIB: f64 = (1u64 << 20) as f64;

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let value = |flag: &str| -> Result<String, String> {
        let i = argv
            .iter()
            .position(|a| a == flag)
            .ok_or_else(|| format!("missing {flag}"))?;
        argv.get(i + 1)
            .cloned()
            .ok_or_else(|| format!("{flag} needs a value"))
    };
    let seconds: f64 = value("--seconds")?
        .parse()
        .map_err(|e| format!("--seconds: {e}"))?;
    if !(seconds > 0.0 && seconds <= 600.0) {
        return Err("--seconds must be in (0, 600]".into());
    }
    Ok(Args {
        workload: value("--workload")?,
        seed: value("--seed")?
            .parse()
            .map_err(|e| format!("--seed: {e}"))?,
        seconds,
        trace: match value("--trace")?.as_str() {
            "0" => false,
            "1" => true,
            other => return Err(format!("--trace must be 0 or 1, not {other}")),
        },
    })
}

/// One metric: name, value, unit.
type Metric = (&'static str, f64, &'static str);

fn us(d: Duration) -> f64 {
    d.as_secs_f64() * 1e6
}

fn tail_of(samples: &[load::Sample], f: impl Fn(&load::Sample) -> f64) -> Tail {
    let v: Vec<f64> = samples
        .iter()
        .map(|s| if s.ok { f(s) } else { f64::INFINITY })
        .collect();
    Tail::of(&v)
}

/// Operations attempted and failed over a pass: every request, every
/// iteration, and every request abandoned when the window overran.
fn counts(p: &Pass) -> (u64, u64) {
    let l = &p.load;
    let ops = (l.reads.len() + l.scans.len() + l.updates.len()) as u64;
    let failed = l
        .reads
        .iter()
        .chain(&l.scans)
        .chain(&l.updates)
        .filter(|s| !s.ok)
        .count() as u64;
    (
        ops + l.abandoned + p.iterations_attempted,
        failed + l.abandoned,
    )
}

fn end_to_end(p: &Pass) -> Vec<Metric> {
    let (attempted, failed) = counts(p);
    vec![
        ("setup_s", median(&p.setup_s), "s"),
        ("refine_s", median(&p.refine_s), "s"),
        ("recall", p.recall, "fraction"),
        ("io_mb", p.io_bytes as f64 / MIB, "MiB"),
        ("peak_rss_mb", p.build_rss_mb, "MiB"),
        ("resume_s", median(&p.resume_s), "s"),
        (
            "ok_ratio",
            1.0 - failed as f64 / attempted.max(1) as f64,
            "fraction",
        ),
    ]
}

/// Latency of the three request classes: reads and scans from when
/// they were due, freshness from acceptance to a served snapshot.
fn latencies(p: &Pass) -> [Tail; 3] {
    let l = &p.load;
    [
        tail_of(&l.reads, |s| us(s.latency)),
        tail_of(&l.scans, |s| s.latency.as_secs_f64() * 1e3),
        Tail::of(
            &l.fresh
                .iter()
                .map(|d| d.as_secs_f64() * 1e3)
                .collect::<Vec<_>>(),
        ),
    ]
}

fn ratio(a: f64, b: f64) -> f64 {
    if b > 0.0 {
        a / b
    } else {
        0.0
    }
}

fn per_layer(p: &Pass, plain: &Pass, spans: u64) -> Vec<Metric> {
    use crate::timing::OpClass;
    let r = &p.reports;
    let sum = |f: &dyn Fn(&knn_core::IterationReport) -> f64| -> f64 { r.iter().map(f).sum() };
    let phase = |i: usize| sum(&|x| x.phase_durations[i].as_secs_f64() * 1e3);
    let phases: f64 = (0..5).map(phase).sum();
    let iter_ms: f64 = p.iter_wall.iter().map(|d| d.as_secs_f64() * 1e3).sum();
    let computed = sum(&|x| x.sims_computed as f64);
    let avoided = sum(&|x| (x.sims_skipped + x.sims_pruned) as f64);
    let offered = sum(&|x| x.tuples.offered as f64);
    let unique = sum(&|x| x.tuples.unique as f64);
    let ex = |f: &dyn Fn(&knn_shard::ExchangeStats) -> u64| -> f64 {
        p.exchange.iter().map(|e| f(e) as f64).sum()
    };
    let s = &p.store;
    let l = &p.load;
    let (before, after) = (
        l.stats_before.expect("stats before"),
        l.stats_after.expect("stats after"),
    );
    let delta = |f: &dyn Fn(&knn_serve::ServiceStats) -> u64| (f(&after) - f(&before)) as f64;
    let [read, scan, fresh] = latencies(p);
    let [plain_read, plain_scan, plain_fresh] = latencies(plain);
    let nb_call = tail_of(&l.reads, |s| us(s.call));
    let scan_call = tail_of(&l.scans, |s| s.call.as_secs_f64() * 1e3);
    let submit_call = tail_of(&l.updates, |s| us(s.call));
    let all: Vec<&load::Sample> = l.reads.iter().chain(&l.scans).chain(&l.updates).collect();
    let max_late = all.iter().map(|s| s.late).max().unwrap_or_default();
    let late = all
        .iter()
        .filter(|s| s.late > Duration::from_millis(1))
        .count();
    let hits = delta(&|x| x.cache_hits);
    let lookups = hits + delta(&|x| x.cache_misses);
    let repaired = delta(&|x| x.repaired_epochs);
    let epochs = delta(&|x| x.snapshot_epoch);
    let overhead = |traced: f64, untraced: f64| 100.0 * (traced - untraced) / untraced;
    let plain_e2e = end_to_end(plain);
    let oh = |name: &str| {
        let get = |v: &[Metric]| v.iter().find(|m| m.0 == name).map_or(f64::NAN, |m| m.1);
        overhead(get(&end_to_end(p)), get(&plain_e2e))
    };
    vec![
        ("core.phase1_ms", phase(0), "ms"),
        ("core.phase2_ms", phase(1), "ms"),
        ("core.phase3_ms", phase(2), "ms"),
        ("core.phase4_ms", phase(3), "ms"),
        ("core.phase5_ms", phase(4), "ms"),
        ("core.commit_ms", iter_ms - phases, "ms"),
        ("core.iter_ms", iter_ms, "ms"),
        ("core.p4_ns_per_sim", ratio(phase(3) * 1e6, computed), "ns"),
        ("core.sims_computed", computed, "count"),
        (
            "core.sims_avoided_ratio",
            ratio(avoided, avoided + computed),
            "fraction",
        ),
        (
            "core.partition_ops",
            sum(&|x| x.phase_io.iter().map(|io| io.partition_ops()).sum::<u64>() as f64),
            "count",
        ),
        (
            "core.bytes_spilled",
            sum(&|x| x.bytes_spilled as f64),
            "bytes",
        ),
        ("core.spill_runs", sum(&|x| x.spill_runs as f64), "count"),
        (
            "core.merge_passes",
            sum(&|x| x.merge_passes as f64),
            "count",
        ),
        ("core.tuples_unique", unique, "count"),
        (
            "core.tuple_dup_ratio",
            ratio(offered - unique, offered),
            "fraction",
        ),
        (
            "core.replication_cost",
            sum(&|x| x.replication_cost as f64),
            "count",
        ),
        (
            "core.intra_partition_ratio",
            ratio(sum(&|x| x.intra_partition_tuples as f64), unique),
            "fraction",
        ),
        ("core.g0_ms", median(&p.g0_ms), "ms"),
        ("core.layout_ms", median(&p.layout_ms), "ms"),
        ("core.resume_ms", median(&p.resume_call_ms), "ms"),
        ("core.verify_ms", median(&p.verify_ms), "ms"),
        ("store.read_ms", s.busy_ms(OpClass::Read), "ms"),
        ("store.read_chunk_ms", s.busy_ms(OpClass::ReadChunk), "ms"),
        ("store.write_ms", s.busy_ms(OpClass::Write), "ms"),
        ("store.copy_ms", s.busy_ms(OpClass::Copy), "ms"),
        ("store.append_ms", s.busy_ms(OpClass::Append), "ms"),
        ("store.delete_ms", s.busy_ms(OpClass::Delete), "ms"),
        ("store.other_ms", s.busy_ms(OpClass::Other), "ms"),
        ("store.ops", s.total_ops() as f64, "count"),
        ("store.read_mb", s.bytes_read as f64 / MIB, "MiB"),
        ("store.write_mb", s.bytes_written as f64 / MIB, "MiB"),
        ("store.retries", sum(&|x| x.retries() as f64), "count"),
        ("store.recover_ms", median(&p.recover_ms), "ms"),
        ("sim.kernel_ns", p.kernel_ns, "ns"),
        ("shard.exchange_mb", ex(&|e| e.bytes) / MIB, "MiB"),
        ("shard.exchange_tuples", ex(&|e| e.tuples), "count"),
        ("shard.exchange_payloads", ex(&|e| e.payloads), "count"),
        ("serve.spawn_ms", p.spawn_ms, "ms"),
        ("serve.read_p50_us", read.p50, "us"),
        ("serve.read_p99_us", read.p99, "us"),
        ("serve.scan_p50_ms", scan.p50, "ms"),
        ("serve.scan_p99_ms", scan.p99, "ms"),
        ("serve.fresh_p50_ms", fresh.p50, "ms"),
        ("serve.fresh_p99_ms", fresh.p99, "ms"),
        ("serve.peak_rss_mb", peak_rss_mb(), "MiB"),
        ("serve.neighbors_call_us_p50", nb_call.p50, "us"),
        ("serve.neighbors_call_us_p99", nb_call.p99, "us"),
        ("serve.scan_call_ms_p50", scan_call.p50, "ms"),
        ("serve.submit_call_us_p50", submit_call.p50, "us"),
        ("serve.submit_call_us_p99", submit_call.p99, "us"),
        ("serve.cache_hit_ratio", ratio(hits, lookups), "fraction"),
        ("serve.rejected", delta(&|x| x.rejected), "count"),
        ("serve.shed", delta(&|x| x.shed), "count"),
        ("serve.coalesced", delta(&|x| x.coalesced), "count"),
        ("serve.peak_pending", after.peak_pending as f64, "count"),
        ("serve.repaired_epochs", repaired, "count"),
        ("serve.exact_epochs", epochs - repaired, "count"),
        ("serve.refine_iters", p.refine_iters as f64, "count"),
        ("gen.max_late_ms", max_late.as_secs_f64() * 1e3, "ms"),
        (
            "gen.late_ratio",
            ratio(late as f64, all.len() as f64),
            "fraction",
        ),
        ("trace.spans", spans as f64, "count"),
        ("trace.overhead_setup_pct", oh("setup_s"), "%"),
        ("trace.overhead_refine_pct", oh("refine_s"), "%"),
        ("trace.overhead_resume_pct", oh("resume_s"), "%"),
        (
            "trace.overhead_read_p50_pct",
            overhead(read.p50, plain_read.p50),
            "%",
        ),
        (
            "trace.overhead_scan_p50_pct",
            overhead(scan.p50, plain_scan.p50),
            "%",
        ),
        (
            "trace.overhead_fresh_p50_pct",
            overhead(fresh.p50, plain_fresh.p50),
            "%",
        ),
    ]
}

fn metrics_json(metrics: &[Metric]) -> String {
    let mut m = JsonObject::new();
    for (name, value, unit) in metrics {
        let mut v = JsonObject::new();
        v.num("value", *value).str("unit", unit);
        m.raw(name, v.finish());
    }
    m.finish()
}

/// Configuration and sample counts of a pass, for the detail file.
fn details(args: &Args, spec: &Spec, workload: &Workload, p: &Pass) -> JsonObject {
    let l = &p.load;
    let knn_env: Vec<String> = std::env::vars()
        .filter(|(k, _)| k.starts_with("KNN_"))
        .map(|(k, v)| format!("{k}={v}"))
        .collect();
    let [read, scan, fresh] = latencies(p);
    let tails = [("read", read), ("scan", scan), ("fresh", fresh)];
    let mut d = JsonObject::new();
    d.str("workload", spec.name)
        .str("why", spec.why)
        .int("seed", args.seed)
        .num("seconds", args.seconds)
        .bool("trace", args.trace)
        .int("nproc", spec::nproc() as u64)
        .str("knn_env", &knn_env.join(" "))
        .str("profiles", &workload.name)
        .int("users", spec.users as u64)
        .int("k", spec.k as u64)
        .int("partitions", spec.partitions as u64)
        .int("cache_slots", spec.cache_slots as u64)
        .int("staging_bytes", spec.staging.unwrap_or(0) as u64)
        .int("threads", spec::THREADS as u64)
        .str("partitioner", &format!("{:?}", spec.partitioner))
        .bool("cluster_init", spec.cluster)
        .str("storage", &format!("{:?}", spec.storage))
        .int("shards", spec.shards as u64)
        .int("schedule_iterations", spec.schedule)
        .int("rounds", p.setup_s.len() as u64)
        .num("rate_reads", spec::RATES.reads)
        .num("rate_scans", spec::RATES.scans)
        .num("rate_updates", spec::RATES.updates)
        .str("graph_digest", &format!("{:016x}", p.digest))
        .str("setup_s_all", &format!("{:?}", p.setup_s))
        .str("refine_s_all", &format!("{:?}", p.refine_s))
        .str("resume_s_all", &format!("{:?}", p.resume_s))
        .int("accepted_updates", l.accepted.len() as u64)
        .int("abandoned", l.abandoned);
    for (name, t) in tails {
        d.int(&format!("{name}_samples"), t.samples as u64)
            .num(&format!("{name}_tail_pct"), t.tail_pct);
    }
    d
}

fn out_dir() -> PathBuf {
    PathBuf::from(".bench_out")
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("lifebench: {e}");
            eprintln!(
                "usage: lifebench --workload <{}> --seed <n> --seconds <s> --trace <0|1>",
                spec::NAMES.join("|")
            );
            std::process::exit(2);
        }
    };
    let Some(spec) = spec::lookup(&args.workload) else {
        eprintln!(
            "lifebench: unknown workload {:?} (one of {})",
            args.workload,
            spec::NAMES.join(", ")
        );
        std::process::exit(2);
    };
    match execute(&args, &spec) {
        Ok(line) => println!("{line}"),
        Err(e) => {
            eprintln!("lifebench: {e}");
            std::process::exit(1);
        }
    }
}

fn execute(args: &Args, spec: &Spec) -> Result<String, String> {
    let out = out_dir();
    let workdir = out.join(format!(
        "work-{}-{}-{}",
        spec.name,
        args.seed,
        std::process::id()
    ));
    std::fs::create_dir_all(&workdir).map_err(|e| format!("{}: {e}", workdir.display()))?;
    let result = measure(args, spec, &out, &workdir);
    let _ = std::fs::remove_dir_all(&workdir);
    result
}

fn measure(args: &Args, spec: &Spec, out: &Path, workdir: &Path) -> Result<String, String> {
    let mut violations = Vec::new();
    if let Err(e) = timing::self_test(workdir, args.seed) {
        violations.push(format!("timing backend self-test: {e}"));
    }
    let workload = spec.profiles.build(spec.users, args.seed);
    // The traced run splits the time between its untraced and traced
    // passes, so it takes as long as an untraced run.
    let seconds = if args.trace {
        args.seconds / 2.0
    } else {
        args.seconds
    };
    let plain = run::pass(
        spec,
        args.seed,
        seconds,
        &workload.profiles,
        workload.measure,
        workdir,
        None,
    )?;
    violations.extend(plain.violations.iter().cloned());

    let (metrics, reported) = if args.trace {
        let tracer = Arc::new(Tracer::new());
        let traced = run::pass(
            spec,
            args.seed,
            seconds,
            &workload.profiles,
            workload.measure,
            workdir,
            Some(Arc::clone(&tracer)),
        )?;
        violations.extend(traced.violations.iter().cloned());
        if traced.digest != plain.digest {
            violations.push(format!(
                "traced graph digest {:016x} differs from untraced {:016x}",
                traced.digest, plain.digest
            ));
        }
        let phases: f64 = traced
            .reports
            .iter()
            .map(|r| r.total_duration().as_secs_f64())
            .sum();
        let walls: f64 = traced.iter_wall.iter().map(Duration::as_secs_f64).sum();
        if phases > walls {
            violations.push(format!(
                "phase times ({phases:.4} s) exceed the measured iteration wall time ({walls:.4} s)"
            ));
        }
        let spans_path = out.join(format!("{}-{}.spans.jsonl", spec.name, args.seed));
        tracer
            .write_to(&spans_path)
            .map_err(|e| format!("{}: {e}", spans_path.display()))?;
        (per_layer(&traced, &plain, tracer.span_count()), traced)
    } else {
        (end_to_end(&plain), plain)
    };

    let (attempted, failed) = counts(&reported);
    let mut detail = details(args, spec, &workload, &reported);
    detail.raw("metrics", metrics_json(&metrics)).raw(
        "violations",
        format!(
            "[{}]",
            violations
                .iter()
                .map(|v| util::quote(v))
                .collect::<Vec<_>>()
                .join(",")
        ),
    );
    let detail = detail.finish();
    eprintln!("{detail}");
    let detail_path = out.join(format!(
        "{}-{}-trace{}.json",
        spec.name,
        args.seed,
        u8::from(args.trace)
    ));
    std::fs::write(&detail_path, &detail).map_err(|e| format!("{}: {e}", detail_path.display()))?;
    for v in &violations {
        eprintln!("lifebench: check failed: {v}");
    }

    let mut result = JsonObject::new();
    result
        .bool("correct", violations.is_empty())
        .int("attempted", attempted)
        .int("failed", failed)
        .raw("metrics", metrics_json(&metrics));
    Ok(result.finish())
}
