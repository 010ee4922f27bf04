//! The command line both binaries share: run one workload, bless its
//! digests, or fold, check and compare result files.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::time::Instant;

use crate::alloc;
use crate::host;
use crate::json::{items, Json};
use crate::names::{Def, Metric, Metrics, END_TO_END, OWN, PER_LAYER};
use crate::probes::{self, Scale};
use crate::runner::{self, Repeat, DEFAULT_SEED};
use crate::span::Trace;
use crate::stats::{max, median, min, quartiles};
use crate::workloads::{self, Workload};

const USAGE: &str = "usage:
  gossip-benchmark[-traced] run --workload W [--seed S] [--seconds N] [--bless]
                                [--baseline FILE] [--dir BENCHMARK_DIR]
  gossip-benchmark-traced probes --workload W [--seed S] [--dir BENCHMARK_DIR]
  gossip-benchmark collect [--dir BENCHMARK_DIR]
  gossip-benchmark check A.json B.json [--dir BENCHMARK_DIR]
  gossip-benchmark compare DIR_A DIR_B";

/// Timed repeats never drop below this, whatever `--seconds` says.
const MIN_REPEATS: usize = 3;
/// Set-ups per run; `setup_s` reports their median.
const SETUPS: usize = 3;
/// Traced repeats after the warm-up.
const TRACED_REPEATS: usize = 2;
/// Counts of a workload's own traced repeats that must be identical
/// between two runs of one seed.
const EXACT_OWN: [&str; 5] = [
    "sim.trials",
    "sim.node_rounds",
    "sim.msgs",
    "alloc.count",
    "alloc.bytes",
];
/// The same among the raw probes.
const EXACT_PROBES: [&str; 6] = [
    "phonecall.events.events",
    "phonecall.traffic.rumor_payloads",
    "phonecall.traffic.budget_drops",
    "phonecall.churn.crashes",
    "phonecall.network.round.allocs_steady",
    "lowerbound.graph.edges.2p16",
];

struct RunArgs {
    workload: String,
    seed: u64,
    seconds: f64,
    bless: bool,
    baseline: Option<PathBuf>,
    dir: PathBuf,
}

fn parse_seed(text: &str) -> Result<u64, String> {
    let parsed = match text.strip_prefix("0x").or_else(|| text.strip_prefix("0X")) {
        Some(hex) => u64::from_str_radix(hex, 16),
        None => text.parse(),
    };
    parsed
        .map_err(|_| format!("--seed wants an unsigned integer (decimal or 0x hex), got {text:?}"))
}

/// Splits `args` into `--flag value` options (flags in `switches` take no
/// value) and positional arguments.
fn split_args(
    args: &[String],
    switches: &[&str],
) -> Result<(BTreeMap<String, String>, Vec<String>), String> {
    let mut options = BTreeMap::new();
    let mut positional = Vec::new();
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        if let Some(flag) = arg.strip_prefix("--") {
            let value = if switches.contains(&flag) {
                String::new()
            } else {
                it.next()
                    .ok_or_else(|| format!("--{flag} wants a value"))?
                    .clone()
            };
            options.insert(flag.to_string(), value);
        } else {
            positional.push(arg.clone());
        }
    }
    Ok((options, positional))
}

fn reject_unknown(options: &BTreeMap<String, String>, known: &[&str]) -> Result<(), String> {
    match options.keys().find(|k| !known.contains(&k.as_str())) {
        Some(unknown) => Err(format!("unknown option --{unknown}")),
        None => Ok(()),
    }
}

fn seed_option(options: &BTreeMap<String, String>) -> Result<u64, String> {
    options
        .get("seed")
        .map_or(Ok(DEFAULT_SEED), |s| parse_seed(s))
}

fn benchmark_dir(options: &BTreeMap<String, String>) -> PathBuf {
    options
        .get("dir")
        .map_or_else(|| PathBuf::from(env!("CARGO_MANIFEST_DIR")), PathBuf::from)
}

fn parse_run(args: &[String]) -> Result<RunArgs, String> {
    let (options, positional) = split_args(args, &["bless"])?;
    if let Some(stray) = positional.first() {
        return Err(format!("unexpected argument {stray:?}"));
    }
    reject_unknown(
        &options,
        &["workload", "seed", "seconds", "bless", "baseline", "dir"],
    )?;
    let seconds = match options.get("seconds") {
        Some(v) => v
            .parse::<f64>()
            .ok()
            .filter(|x| x.is_finite() && *x >= 0.0)
            .ok_or_else(|| format!("--seconds wants a non-negative number, got {v:?}"))?,
        None => 10.0,
    };
    let seed = seed_option(&options)?;
    let bless = options.contains_key("bless");
    if bless && seed != DEFAULT_SEED {
        // expected/*.tsv is only ever read under the default seed.
        return Err(format!(
            "--bless rewrites the digests of the default seed {DEFAULT_SEED:#X}; drop --seed"
        ));
    }
    Ok(RunArgs {
        workload: options
            .get("workload")
            .cloned()
            .ok_or("run wants --workload")?,
        seed,
        seconds,
        bless,
        baseline: options.get("baseline").map(PathBuf::from),
        dir: benchmark_dir(&options),
    })
}

fn read_json(path: &Path) -> Result<Json, String> {
    let text = std::fs::read_to_string(path)
        .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
    Json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))
}

fn write_file(path: &Path, text: &str) -> Result<(), String> {
    if let Some(parent) = path.parent() {
        std::fs::create_dir_all(parent)
            .map_err(|e| format!("cannot create {}: {e}", parent.display()))?;
    }
    std::fs::write(path, text).map_err(|e| format!("cannot write {}: {e}", path.display()))
}

fn metrics_json(metrics: &[Metric]) -> Json {
    Json::Obj(
        metrics
            .iter()
            .map(|m| {
                let value = Json::obj([
                    ("value", Json::Num(m.value)),
                    ("unit", Json::Str(m.unit.into())),
                ]);
                (m.name.clone(), value)
            })
            .collect(),
    )
}

/// The line the driver reads, last on standard output.
fn result_line(attempted: f64, failed: f64, metrics: Json) -> String {
    Json::obj([
        ("correct", Json::Bool(failed == 0.0)),
        ("attempted", Json::Num(attempted)),
        ("failed", Json::Num(failed)),
        ("metrics", metrics),
    ])
    .render()
}

/// The outcome of the output check over every pass of a run.
struct Verdict {
    attempted: u64,
    failed: u64,
    reasons: Vec<String>,
}

fn check_passes(w: &Workload, warm: &Repeat, timed: &[Repeat], expected: Option<&str>) -> Verdict {
    let mut reasons = runner::failures(w, warm, None, expected);
    for r in timed {
        reasons.extend(runner::failures(w, r, Some(warm), expected));
    }
    Verdict {
        attempted: warm.trial_count() * (1 + timed.len() as u64),
        failed: reasons.len() as u64,
        reasons,
    }
}

/// Prints the metrics by name, writes `out/result-<workload>[-traced].json`
/// and prints the result line the driver reads. Returns the exit code.
fn report(
    args: &RunArgs,
    traced: bool,
    table: &[Def],
    metrics: &Metrics,
    verdict: &Verdict,
    walls_s: &[f64],
    threads: usize,
) -> Result<i32, String> {
    let metrics = metrics.in_order(table);
    let workload = &args.workload;
    for m in &metrics {
        if m.name == "wall_s" {
            println!(
                "{workload} {} {} {} (fastest of {} repeats; median {} max {})",
                m.name,
                m.value,
                m.unit,
                walls_s.len(),
                median(walls_s),
                max(walls_s)
            );
        } else {
            println!("{workload} {} {} {}", m.name, m.value, m.unit);
        }
    }
    let failed_frac = verdict.failed as f64 / verdict.attempted as f64;
    println!(
        "{workload} failed_frac {failed_frac} ratio ({} of {} trials)",
        verdict.failed, verdict.attempted
    );
    for reason in verdict.reasons.iter().take(10) {
        eprintln!("{workload}: FAILED {reason}");
    }
    let correct = verdict.failed == 0;
    let (attempted, failed) = (verdict.attempted as f64, verdict.failed as f64);
    let failures = verdict.reasons.iter().take(10);
    let full = Json::obj([
        ("workload", Json::Str(workload.clone())),
        ("seed", Json::Num(args.seed as f64)),
        ("traced", Json::Bool(traced)),
        ("correct", Json::Bool(correct)),
        ("attempted", Json::Num(attempted)),
        ("failed", Json::Num(failed)),
        ("failed_frac", Json::Num(failed_frac)),
        (
            "failures",
            Json::Arr(failures.map(|r| Json::Str(r.clone())).collect()),
        ),
        (
            "wall_samples_s",
            Json::Arr(walls_s.iter().map(|&x| Json::Num(x)).collect()),
        ),
        ("metrics", metrics_json(&metrics)),
        ("host", host::shape(threads)),
    ]);
    let suffix = if traced { "-traced" } else { "" };
    let path = args
        .dir
        .join("out")
        .join(format!("result-{workload}{suffix}.json"));
    write_file(&path, &(full.render() + "\n"))?;
    println!("{}", result_line(attempted, failed, metrics_json(&metrics)));
    Ok(i32::from(!correct))
}

fn expected_path(args: &RunArgs) -> PathBuf {
    args.dir
        .join("expected")
        .join(format!("{}.tsv", args.workload))
}

/// The blessed digests, when this run's seed is the one they were made
/// under; any other seed is checked against its own warm-up only.
fn load_expected(args: &RunArgs) -> Result<Option<String>, String> {
    if args.seed != DEFAULT_SEED || args.bless {
        return Ok(None);
    }
    let path = expected_path(args);
    std::fs::read_to_string(&path).map(Some).map_err(|e| {
        format!(
            "cannot read {}: {e} (bless it with run.sh --bless)",
            path.display()
        )
    })
}

fn untraced(args: &RunArgs) -> Result<i32, String> {
    let out = args.dir.join("out");
    // Set up several times and keep the median, so one slow disk write
    // does not decide `setup_s`; the last set-up's grid is the one run.
    let mut setups = Vec::new();
    let mut w = None;
    for _ in 0..SETUPS {
        let start = Instant::now();
        w = Some(runner::setup(&args.workload, &out)?);
        setups.push(start.elapsed().as_secs_f64());
    }
    let w = w.expect("SETUPS > 0");
    let warm = runner::run_repeat(&w, w.threads, args.seed, None);
    let setup_s = median(&setups) + warm.wall_ns as f64 * 1e-9;

    if args.bless {
        let path = expected_path(args);
        write_file(&path, &runner::render_tsv(&w, &warm))?;
        eprintln!("blessed {}", path.display());
    }

    let mut timed = Vec::new();
    let started = Instant::now();
    while timed.len() < MIN_REPEATS || started.elapsed().as_secs_f64() < args.seconds {
        timed.push(runner::run_repeat(&w, w.threads, args.seed, None));
    }
    // The fastest repeat, not the median one: on a shared host the noise
    // is one-sided (a neighbour only ever adds time), and over six runs of
    // one seed the minimum spread 0.6 % where the median spread 8 %.
    let walls_s: Vec<f64> = timed.iter().map(|r| r.wall_ns as f64 * 1e-9).collect();
    let wall_s = min(&walls_s);
    let expected = load_expected(args)?;
    let verdict = check_passes(&w, &warm, &timed, expected.as_deref());
    let mut m = Metrics::default();
    m.put("setup_s", setup_s);
    m.put("wall_s", wall_s);
    m.put(
        "ns_per_node_round",
        wall_s * 1e9 / warm.node_rounds().max(1) as f64,
    );
    m.put(
        "peak_rss_mb",
        host::peak_rss_mb().ok_or("cannot read VmHWM from /proc/self/status")?,
    );
    report(args, false, &END_TO_END, &m, &verdict, &walls_s, w.threads)
}

/// Prints where one repeat's time went: a row per layer, then the
/// costliest cells.
fn print_time_table(workload: &str, trace: &Trace, repeat_id: u32) {
    let spans = trace.spans();
    let wall = spans[repeat_id as usize].duration_ns() as f64;
    eprintln!(
        "\n{workload}: where one repeat's {:.1} ms went",
        wall * 1e-6
    );
    eprintln!(
        "{:<44} {:>7} {:>12} {:>12} {:>7}",
        "layer", "spans", "total ms", "self ms", "self %"
    );
    let mut rows: Vec<_> = trace.layer_times(repeat_id).into_iter().collect();
    rows.sort_by_key(|(_, t)| std::cmp::Reverse(t.self_ns));
    for (name, t) in rows {
        eprintln!(
            "{name:<44} {:>7} {:>12.3} {:>12.3} {:>6.1}%",
            t.count,
            t.total_ns as f64 * 1e-6,
            t.self_ns as f64 * 1e-6,
            100.0 * t.self_ns as f64 / wall
        );
    }
    let mut cells: Vec<_> = spans
        .iter()
        .filter(|s| s.parent == Some(repeat_id))
        .collect();
    cells.sort_by_key(|s| std::cmp::Reverse(s.duration_ns()));
    eprintln!("costliest cells:");
    for s in cells.iter().take(8) {
        eprintln!(
            "  {:<42} {:>12.3} ms {:>6.1}%",
            s.name.trim_start_matches("cell "),
            s.duration_ns() as f64 * 1e-6,
            100.0 * s.duration_ns() as f64 / wall
        );
    }
}

fn traced(args: &RunArgs) -> Result<i32, String> {
    let out = args.dir.join("out");
    let w = runner::setup(&args.workload, &out)?;
    // The warm-up takes the untraced path (`Algorithm::run`), so checking
    // the traced repeats against it also checks the Cluster2 replica.
    let warm = runner::run_repeat(&w, w.threads, args.seed, None);

    let mut trace = Trace::default();
    let root = trace.open(None, format!("workload {}", w.name));
    let mut next_trial = 0;
    let mut timed = Vec::new();
    // Span id and allocations of the last traced repeat.
    let (mut repeat_id, mut allocs, mut alloc_bytes) = (root, 0, 0);
    for _ in 0..TRACED_REPEATS {
        let before = alloc::snapshot();
        let (repeat, id) =
            runner::run_traced_repeat(&w, args.seed, &mut trace, root, &mut next_trial);
        let after = alloc::snapshot();
        (repeat_id, allocs, alloc_bytes) =
            (id, after.count - before.count, after.bytes - before.bytes);
        timed.push(repeat);
    }
    trace.close(root);
    let repeat = timed.last().expect("TRACED_REPEATS > 0");

    let walls_s: Vec<f64> = timed.iter().map(|r| r.wall_ns as f64 * 1e-9).collect();
    let expected = load_expected(args)?;
    let verdict = check_passes(&w, &warm, &timed, expected.as_deref());

    let mut m = Metrics::default();
    m.put("sim.trials", repeat.trial_count() as f64);
    m.put("sim.node_rounds", repeat.node_rounds() as f64);
    m.put("sim.msgs", repeat.msgs() as f64);
    m.put("alloc.count", allocs as f64);
    m.put("alloc.bytes", alloc_bytes as f64);
    let baseline = match &args.baseline {
        Some(path) => metric_value(&read_json(path)?, "wall_s")
            .ok_or_else(|| format!("{}: no wall_s metric", path.display()))?,
        None => return Err("the traced binary wants --baseline (run.sh passes it)".into()),
    };
    m.put("trace.overhead_ratio", min(&walls_s) / baseline);
    // Everything of a repeat that is not inside a trial: the harness
    // fan-out and join, cell bookkeeping, and the benchmark's own loop.
    let layers = trace.layer_times(repeat_id);
    let outside = layers["repeat"].self_ns + layers["cell"].self_ns;
    m.put(
        "trace.accounted_share",
        1.0 - outside as f64 / layers["repeat"].total_ns as f64,
    );
    let trial_ms: Vec<f64> = repeat.trial_ns().iter().map(|ns| ns * 1e-6).collect();
    m.put("trace.trial_ms.p50", median(&trial_ms));
    m.put("trace.trial_ms.max", max(&trial_ms));

    print_time_table(w.name, &trace, repeat_id);
    write_file(
        &out.join(format!("trace-{}.json", w.name)),
        &(trace.to_json().render() + "\n"),
    )?;

    report(
        args,
        true,
        &PER_LAYER[..OWN],
        &m,
        &verdict,
        &walls_s,
        w.threads,
    )
}

/// Runs the raw probes, which no workload changes, once per `run.sh`:
/// prints them, writes `out/result-probes.json`, and ends with the
/// driver's line for a traced run, every per-layer metric: the traced
/// result of `--workload` (the last one run) with the probes merged in.
fn run_probes(args: &[String]) -> Result<i32, String> {
    let (options, positional) = split_args(args, &[])?;
    if let Some(stray) = positional.first() {
        return Err(format!("unexpected argument {stray:?}"));
    }
    reject_unknown(&options, &["seed", "workload", "dir"])?;
    let seed = seed_option(&options)?;
    let workload = options.get("workload").ok_or("probes wants --workload")?;
    let out = benchmark_dir(&options).join("out");
    let path = out.join(format!("result-{workload}-traced.json"));
    let own = read_json(&path)?;
    let count = |key: &str| {
        own.get(key)
            .and_then(Json::as_f64)
            .ok_or_else(|| format!("{}: no {key}", path.display()))
    };
    let (attempted, failed) = (count("attempted")?, count("failed")?);

    let mut m = Metrics::default();
    probes::run_all(&mut m, Scale::FULL, seed, &out)?;
    let metrics = m.in_order(&PER_LAYER[OWN..]);
    for m in &metrics {
        println!("probes {} {} {}", m.name, m.value, m.unit);
    }
    let probed = metrics_json(&metrics);
    let full = Json::obj([
        ("seed", Json::Num(seed as f64)),
        ("metrics", probed.clone()),
        ("host", host::shape(workloads::SWEEP_THREADS)),
    ]);
    write_file(&out.join("result-probes.json"), &(full.render() + "\n"))?;

    let mut all = own.get("metrics").map_or(&[][..], Json::entries).to_vec();
    all.extend_from_slice(probed.entries());
    println!("{}", result_line(attempted, failed, Json::Obj(all)));
    Ok(0)
}

/// Folds `out/result-*.json` into `out/results.json`. `run.sh` clears them
/// before it runs, so the fold holds one run's results and no older ones.
fn collect(args: &[String]) -> Result<i32, String> {
    let (options, _) = split_args(args, &[])?;
    let out = benchmark_dir(&options).join("out");
    let mut folded = Vec::new();
    for name in workloads::NAMES {
        let mut entry = Vec::new();
        for (key, suffix) in [("untraced", ""), ("traced", "-traced")] {
            let path = out.join(format!("result-{name}{suffix}.json"));
            if path.exists() {
                entry.push((key.to_string(), read_json(&path)?));
            }
        }
        if !entry.is_empty() {
            folded.push((name.to_string(), Json::Obj(entry)));
        }
    }
    if folded.is_empty() {
        return Err(format!("no result-*.json under {}", out.display()));
    }
    let mut doc = vec![("workloads".to_string(), Json::Obj(folded))];
    let probes_path = out.join("result-probes.json");
    if probes_path.exists() {
        doc.push(("probes".to_string(), read_json(&probes_path)?));
    }
    let doc = Json::Obj(doc);
    let path = out.join("results.json");
    write_file(&path, &(doc.render() + "\n"))?;
    eprintln!("wrote {}", path.display());
    Ok(0)
}

fn metric_value(result: &Json, name: &str) -> Option<f64> {
    result.get("metrics")?.get(name)?.get("value")?.as_f64()
}

/// How much worse `b` is than `a`, as a share of `a`.
fn worse_by(better: &str, a: f64, b: f64) -> f64 {
    if better == "lower" {
        (b - a) / a
    } else {
        (a - b) / a
    }
}

/// Compares two `results.json` files of the same code: every end-to-end
/// metric of the second within its `BENCHMARK.json` bound of the first,
/// nothing failed, and every exact count identical.
fn check(args: &[String]) -> Result<i32, String> {
    let (options, files) = split_args(args, &[])?;
    let [a, b] = files.as_slice() else {
        return Err("check wants two results.json files".into());
    };
    let (a, b) = (read_json(Path::new(a))?, read_json(Path::new(b))?);
    let spec = read_json(&benchmark_dir(&options).join("../BENCHMARK.json"))?;
    let mut bad = 0;
    println!(
        "{:<22} {:<20} {:>14} {:>14} {:>8} {:>6}",
        "workload", "metric", "first", "second", "worse", "bound"
    );
    for (name, first) in a.get("workloads").map_or(&[][..], Json::entries) {
        let Some(second) = b.get("workloads").and_then(|w| w.get(name)) else {
            println!("{name}: missing from the second set");
            bad += 1;
            continue;
        };
        if let (Some(x), Some(y)) = (first.get("untraced"), second.get("untraced")) {
            for m in spec.get("end_to_end").map_or(&[][..], items) {
                let field = |f: &str| m.get(f).and_then(Json::as_str).unwrap_or_default();
                let bound = m.get("bound").and_then(Json::as_f64).unwrap_or(0.0);
                let (Some(va), Some(vb)) = (
                    metric_value(x, field("name")),
                    metric_value(y, field("name")),
                ) else {
                    return Err(format!("{name}: {} missing", field("name")));
                };
                let worse = worse_by(field("better"), va, vb);
                let flag = if worse > bound {
                    "  <-- beyond bound"
                } else {
                    ""
                };
                bad += i32::from(worse > bound);
                println!(
                    "{name:<22} {:<20} {va:>14.6} {vb:>14.6} {:>7.1}% {:>5.0}%{flag}",
                    field("name"),
                    100.0 * worse,
                    100.0 * bound
                );
            }
            for (side, r) in [("first", x), ("second", y)] {
                if r.get("failed").and_then(Json::as_f64) != Some(0.0) {
                    println!("{name}: failed_frac above 0 in the {side} set");
                    bad += 1;
                }
            }
        }
        if let (Some(x), Some(y)) = (first.get("traced"), second.get("traced")) {
            for count in EXACT_OWN {
                // Two threads interleave their allocations with the
                // spawning thread's; only single-threaded counts are exact.
                if name == "sweep_small" && count.starts_with("alloc.") {
                    continue;
                }
                let (va, vb) = (metric_value(x, count), metric_value(y, count));
                if va != vb {
                    println!("{name}: exact count {count} differs: {va:?} vs {vb:?}");
                    bad += 1;
                }
            }
        }
    }
    if let (Some(x), Some(y)) = (a.get("probes"), b.get("probes")) {
        for count in EXACT_PROBES {
            let (va, vb) = (metric_value(x, count), metric_value(y, count));
            if va != vb {
                println!("probes: exact count {count} differs: {va:?} vs {vb:?}");
                bad += 1;
            }
        }
    }
    println!(
        "{}",
        if bad == 0 {
            "check: OK"
        } else {
            "check: FAILED"
        }
    );
    Ok(i32::from(bad > 0))
}

/// Paired comparison (choosing-metrics §8): `dir_a` and `dir_b` hold
/// `pair-<k>-<workload>.json` results of two revisions, run alternately.
fn compare(args: &[String]) -> Result<i32, String> {
    let [dir_a, dir_b] = args else {
        return Err("compare wants two result directories".into());
    };
    println!(
        "{:<22} {:<18} {:>5}  {:>36}  {:>36}  {:>9}",
        "workload", "metric", "pairs", "A median [q1, q3]", "B median [q1, q3]", "B wins"
    );
    for name in workloads::NAMES {
        let mut pairs: Vec<(Json, Json)> = Vec::new();
        for k in 0.. {
            let file = format!("pair-{k}-{name}.json");
            let (pa, pb) = (Path::new(dir_a).join(&file), Path::new(dir_b).join(&file));
            if !pa.exists() || !pb.exists() {
                break;
            }
            pairs.push((read_json(&pa)?, read_json(&pb)?));
        }
        if pairs.is_empty() {
            continue;
        }
        for (metric, _, better) in END_TO_END {
            let values = |side: fn(&(Json, Json)) -> &Json| -> Vec<f64> {
                pairs
                    .iter()
                    .filter_map(|p| metric_value(side(p), metric))
                    .collect()
            };
            let (xs, ys) = (values(|p| &p.0), values(|p| &p.1));
            let wins = xs
                .iter()
                .zip(&ys)
                .filter(|(x, y)| worse_by(better, **x, **y) < 0.0)
                .count();
            let ties = xs.iter().zip(&ys).filter(|(x, y)| x == y).count();
            let show = |v: &[f64]| {
                let (q1, q3) = quartiles(v);
                format!("{:.6} [{q1:.6}, {q3:.6}]", median(v))
            };
            println!(
                "{name:<22} {metric:<18} {:>5}  {:>36}  {:>36}  {wins:>3}/{:<3}{}",
                xs.len(),
                show(&xs),
                show(&ys),
                xs.len() - ties,
                if ties > 0 {
                    format!(" ({ties} ties)")
                } else {
                    String::new()
                }
            );
        }
    }
    Ok(0)
}

/// Entry point of both binaries; `traced_binary` says which one this is.
/// Returns the process exit code.
#[must_use]
pub fn main(traced_binary: bool) -> i32 {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (command, rest) = match args.split_first() {
        Some((c, rest)) => (c.as_str(), rest),
        None => ("", &[][..]),
    };
    let result = match command {
        "run" => parse_run(rest).and_then(|a| {
            if traced_binary {
                traced(&a)
            } else {
                untraced(&a)
            }
        }),
        "probes" if traced_binary => run_probes(rest),
        "collect" => collect(rest),
        "check" => check(rest),
        "compare" => compare(rest),
        _ => Err(USAGE.to_string()),
    };
    result.unwrap_or_else(|e| {
        eprintln!("gossip-benchmark: {e}");
        2
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn strings(args: &[&str]) -> Vec<String> {
        args.iter().map(|s| (*s).to_string()).collect()
    }

    #[test]
    fn run_arguments_parse_and_reject() {
        let a = parse_run(&strings(&[
            "--workload",
            "huge_sync",
            "--seed",
            "0x2A",
            "--seconds",
            "10",
        ]))
        .unwrap();
        assert_eq!(
            (a.workload.as_str(), a.seed, a.seconds),
            ("huge_sync", 42, 10.0)
        );
        assert!(!a.bless && a.baseline.is_none());
        let a = parse_run(&strings(&["--workload", "w", "--bless"])).unwrap();
        assert!(a.bless);
        assert_eq!((a.seed, a.seconds), (DEFAULT_SEED, 10.0));
        assert_eq!(
            parse_run(&strings(&["--workload", "w"])).unwrap().seed,
            DEFAULT_SEED
        );
        for bad in [
            &["--seed", "1"][..],
            &["--workload", "w", "--seed", "-1"],
            &["--workload", "w", "--seconds", "soon"],
            &["--workload", "w", "--warp", "9"],
            &["--workload", "w", "--repeats", "2"],
            &["--workload", "w", "--seed", "7", "--bless"],
            &["--workload", "w", "stray"],
            &["--workload"],
        ] {
            assert!(parse_run(&strings(bad)).is_err(), "{bad:?}");
        }
    }

    #[test]
    fn results_round_trip_through_json() {
        let dir = std::env::temp_dir().join(format!("gossip-benchmark-cli-{}", std::process::id()));
        let args = RunArgs {
            workload: "complete_sync".into(),
            seed: 9,
            seconds: 0.0,
            bless: false,
            baseline: None,
            dir: dir.clone(),
        };
        let mut m = Metrics::default();
        for (name, value) in [
            ("setup_s", 0.812_734_5),
            ("wall_s", 1.203_4),
            ("ns_per_node_round", 41.75),
            ("peak_rss_mb", 96.0),
        ] {
            m.put(name, value);
        }
        let verdict = Verdict {
            attempted: 12,
            failed: 1,
            reasons: vec!["cell seed 1: digest differs".into()],
        };
        let code = report(&args, false, &END_TO_END, &m, &verdict, &[1.2, 1.3], 1).unwrap();
        assert_eq!(code, 1);
        let path = dir.join("out/result-complete_sync.json");
        let text = std::fs::read_to_string(&path).unwrap();
        let doc = Json::parse(&text).unwrap();
        assert_eq!(doc.render() + "\n", text);
        assert_eq!(metric_value(&doc, "wall_s"), Some(1.203_4));
        assert_eq!(doc.get("failed_frac").unwrap().as_f64(), Some(1.0 / 12.0));
        assert_eq!(doc.get("correct").unwrap().as_bool(), Some(false));

        // collect folds it, and the probes' result beside it.
        let probes = "{\"metrics\":{\"phonecall.events.events\":{\"value\":7,\"unit\":\"count\"}}}";
        write_file(&dir.join("out/result-probes.json"), probes).unwrap();
        let dir_arg = strings(&["--dir", dir.to_str().unwrap()]);
        assert_eq!(collect(&dir_arg).unwrap(), 0);
        let results = read_json(&dir.join("out/results.json")).unwrap();
        assert_eq!(results.get("probes").unwrap().render(), probes);
        let folded = results
            .get("workloads")
            .unwrap()
            .get("complete_sync")
            .unwrap();
        assert_eq!(folded.get("untraced").unwrap(), &doc);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn worse_by_respects_direction() {
        assert!((worse_by("lower", 10.0, 11.0) - 0.1).abs() < 1e-12);
        assert!((worse_by("higher", 10.0, 9.0) - 0.1).abs() < 1e-12);
        assert!(worse_by("lower", 10.0, 9.0) < 0.0);
    }
}
