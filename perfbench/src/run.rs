//! One benchmark invocation: generate, run, verify, report.

use crate::gen::{self, Inputs, Scale, Workload};
use crate::measure::{environment, host_probe_ms, json_num, json_str, median, percentile};
use crate::oracle::identical;
use crate::trace::{replay_layers, Span, Traced};
use crate::workload::{self, E2e};
use cned::ResponseBody;
use std::fmt::Write as _;
use std::path::{Path, PathBuf};

/// Parsed command line.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Args {
    /// Which workload.
    pub workload: Workload,
    /// Input seed.
    pub seed: u64,
    /// Length of the timed phase.
    pub seconds: f64,
    /// Also replay the workload through each layer (per-layer metrics).
    pub trace: bool,
}

/// What the invocation prints.
pub struct Outcome {
    /// Human-readable lines (printed with a `# ` prefix).
    pub report: Vec<String>,
    /// The result line.
    pub json: String,
    /// No call failed, every answer matched the oracle and, traced,
    /// every replay matched the untraced run.
    pub correct: bool,
}

/// One reported metric.
struct Metric {
    name: &'static str,
    unit: &'static str,
    value: f64,
    /// Samples behind the figure.
    samples: usize,
    /// Listed in `BENCHMARK.json` and printed on the result line.
    gated: bool,
}

/// Per-layer metrics printed but left off the result line: the gate
/// share is 0 on the `d_E` workloads that `BENCHMARK.json` lists.
const REPORTED_LAYER_METRICS: [&str; 1] = ["core.dc_gate_reject_share"];

/// Output directory of a workload, inside the working directory.
pub fn out_dir(workload: Workload) -> PathBuf {
    Path::new(".perfbench_out").join(workload.name())
}

/// The end-to-end metrics of a run. Only those that repeat within their
/// bound on the reference host are gated (listed in `BENCHMARK.json`
/// and put on the result line); the rest are printed with their sample
/// counts. Throughput and the upper percentiles follow the host's
/// scheduling noise, and `error_share` is 0 on a correct program, so
/// the result line carries it as `attempted`/`failed`.
fn end_to_end(e2e: &E2e) -> Vec<Metric> {
    let reads = e2e.latencies_ms(false);
    let writes = e2e.latencies_ms(true);
    let verdict = &e2e.verdict;
    let m = |name, unit, value, samples, gated| Metric {
        name,
        unit,
        value,
        samples,
        gated,
    };
    let p = |name, samples: &[f64], q, gated| {
        m(name, "ms", percentile(samples, q), samples.len(), gated)
    };
    vec![
        m(
            "setup_s",
            "s",
            median(&e2e.setups_s),
            e2e.setups_s.len(),
            true,
        ),
        m(
            "ops_per_s",
            "1/s",
            e2e.timed_ops as f64 / e2e.timed_s,
            e2e.timed_ops,
            false,
        ),
        p("read_p50_ms", &reads, 0.50, true),
        p("read_p90_ms", &reads, 0.90, false),
        p("read_p99_ms", &reads, 0.99, false),
        p("write_p50_ms", &writes, 0.50, true),
        p("write_p90_ms", &writes, 0.90, false),
        p("write_p99_ms", &writes, 0.99, false),
        m("peak_rss_mb", "MB", e2e.peak_rss_mb, 1, true),
        m(
            "error_share",
            "share",
            verdict.failed() as f64 / verdict.attempted.max(1) as f64,
            verdict.attempted,
            false,
        ),
    ]
}

fn result_json(correct: bool, attempted: usize, failed: usize, metrics: &[Metric]) -> String {
    let mut out = format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{"
    );
    for (i, m) in metrics.iter().filter(|m| m.gated).enumerate() {
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(
            out,
            "{sep}{}: {{\"value\": {}, \"unit\": {}}}",
            json_str(m.name),
            json_num(m.value),
            json_str(m.unit)
        );
    }
    out.push_str("}}");
    out
}

fn stamp(args: &Args, scale: Scale, inputs: &Inputs, e2e: &E2e, probes: &[f64]) -> String {
    let mut fields: Vec<(&str, String)> = environment()
        .into_iter()
        .map(|(k, v)| (k, json_str(&v)))
        .collect();
    fields.push(("workload", json_str(args.workload.name())));
    fields.push(("seed", args.seed.to_string()));
    fields.push(("seconds", json_num(args.seconds)));
    fields.push(("corpus", inputs.corpus.len().to_string()));
    fields.push(("warmup", inputs.warmup.len().to_string()));
    fields.push(("tail", inputs.tail.len().to_string()));
    fields.push(("epoch", scale.epoch.to_string()));
    fields.push(("epochs", e2e.epochs.to_string()));
    fields.push(("setups", e2e.setups_s.len().to_string()));
    fields.push(("replay", scale.replay.to_string()));
    fields.push((
        "host_probe_ms",
        format!(
            "[{}]",
            probes
                .iter()
                .map(|p| json_num(*p))
                .collect::<Vec<_>>()
                .join(", ")
        ),
    ));
    let body: Vec<String> = fields
        .into_iter()
        .map(|(k, v)| format!("{}: {v}", json_str(k)))
        .collect();
    format!("{{{}}}", body.join(", "))
}

fn metric_lines(title: &str, metrics: &[Metric]) -> Vec<String> {
    let mut lines = vec![title.to_string()];
    for m in metrics {
        lines.push(format!(
            "  {:<26} {:>14.6} {:<6} (n={}){}",
            m.name,
            m.value,
            m.unit,
            m.samples,
            if m.gated { "" } else { "  [reported]" }
        ));
    }
    lines
}

/// Replayed answers that differ from the untraced run's, over the
/// requests both made: the common stream prefix, then the write tail.
fn differing(e2e: &E2e, replayed: &[ResponseBody], prefix: usize) -> usize {
    let head = e2e
        .first
        .iter()
        .zip(&replayed[..prefix])
        .filter(|(a, b)| !identical(a, b, true));
    let tail = e2e
        .tail
        .iter()
        .zip(&replayed[prefix..])
        .filter(|(a, b)| !identical(a, b, true));
    head.count() + tail.count()
}

/// Dump the replays' spans. `link` says how a span relates to its
/// parent: `nested` when it lies inside the parent's interval (the same
/// replay), `logical` when the parent is the same request one layer up
/// in another replay, run at another time.
fn write_spans(path: &Path, spans: &[Span]) -> std::io::Result<()> {
    let mut out = String::from("id\tparent\tlink\trequest\tname\tstart_ns\tend_ns\n");
    for s in spans {
        // Ids are 1-based positions in `spans`.
        let parent = s.parent.map(|p| &spans[p as usize - 1]);
        let link = match parent {
            None => "-",
            Some(p) if p.start_ns <= s.start_ns && s.end_ns <= p.end_ns => "nested",
            Some(_) => "logical",
        };
        let parent = s.parent.map_or("-".to_string(), |p| p.to_string());
        let _ = writeln!(
            out,
            "{}\t{parent}\t{link}\t{}\t{}\t{}\t{}",
            s.id, s.request, s.name, s.start_ns, s.end_ns
        );
    }
    std::fs::write(path, out)
}

/// The per-layer part of a traced run: print the replays' figures, the
/// tracing overhead and the bit-identity check, and write the trace
/// files. Returns the per-layer metrics and the mismatching answers.
fn layer_report(
    dir: &Path,
    e2e: &E2e,
    traced: &Traced,
    report: &mut Vec<String>,
) -> Result<(Vec<Metric>, usize), String> {
    let replay_drift = differing(e2e, &traced.answers, traced.prefix);
    report.push(format!(
        "bit identity: {replay_drift} replayed answers differ from the untraced run, {} \
         across layers (the timing and the plain bare index included) or against the \
         oracle ({} requests replayed per layer, SearchStats included)",
        traced.mismatches, traced.calls
    ));

    let mut overhead = String::from("metric\tunit\tplain\ttraced\ttraced/plain\n");
    report.push("tracing overhead on the bare index (timing Distance / plain metric):".into());
    for &(name, unit, plain, timed) in &traced.overhead {
        let ratio = timed / plain;
        report.push(format!(
            "  {name:<16} {plain:>10.3} -> {timed:>10.3} {unit}  ({ratio:.4})"
        ));
        let _ = writeln!(overhead, "{name}\t{unit}\t{plain}\t{timed}\t{ratio}");
    }

    let mut layers = String::from("layer\tself_us\tcalls\tfeeds\n");
    report.push("per-layer self time (µs per call):".into());
    for (layer, self_us, calls, feeds) in &traced.layers {
        report.push(format!(
            "  {layer:<14} {self_us:>10.3}  n={calls:<6} -> {feeds}"
        ));
        let _ = writeln!(layers, "{layer}\t{self_us}\t{calls}\t{feeds}");
    }
    write_spans(&dir.join("spans.tsv"), &traced.spans)
        .and_then(|()| std::fs::write(dir.join("layers.tsv"), layers))
        .and_then(|()| std::fs::write(dir.join("overhead.tsv"), overhead))
        .map_err(|e| format!("writing the trace files: {e}"))?;
    report.push(format!(
        "wrote {}/{{spans,layers,overhead}}.tsv ({} spans)",
        dir.display(),
        traced.spans.len()
    ));

    let per_layer: Vec<Metric> = traced
        .metrics
        .iter()
        .map(|&(name, unit, value)| Metric {
            name,
            unit,
            value,
            samples: traced.calls,
            gated: !REPORTED_LAYER_METRICS.contains(&name),
        })
        .collect();
    report.extend(metric_lines("per-layer (replays)", &per_layer));
    Ok((per_layer, replay_drift + traced.mismatches))
}

/// Run one invocation.
pub fn run(args: &Args) -> Result<Outcome, String> {
    let workload = args.workload;
    let scale = Scale::full(workload);
    let dir = out_dir(workload);
    let data = dir.join("data");
    let _ = std::fs::remove_dir_all(&data);
    std::fs::create_dir_all(&data).map_err(|e| format!("creating {}: {e}", data.display()))?;

    let mut probes = vec![host_probe_ms()];
    let inputs = gen::inputs(workload, scale, args.seed);
    let e2e = workload::run(workload, scale, args.seed, &inputs, args.seconds, &data);
    probes.push(host_probe_ms());
    let verdict = e2e.verdict;
    let metrics = end_to_end(&e2e);

    let mut report = Vec::new();
    let mut correct = verdict.failed() == 0;
    let (mut attempted, mut failed) = (verdict.attempted, verdict.failed());
    report.extend(metric_lines(
        &format!(
            "{} seed {}: end-to-end ({} wrong, {} errors)",
            workload.name(),
            args.seed,
            verdict.wrong,
            verdict.errors
        ),
        &metrics,
    ));

    let json = if args.trace {
        let traced = replay_layers(workload, scale, args.seed, &inputs, &data)
            .map_err(|e| format!("layer replay: {e}"))?;
        probes.push(host_probe_ms());
        let (per_layer, mismatches) = layer_report(&dir, &e2e, &traced, &mut report)?;
        correct &= mismatches == 0;
        attempted += traced.calls;
        failed += mismatches;
        result_json(correct, attempted, failed, &per_layer)
    } else {
        result_json(correct, attempted, failed, &metrics)
    };

    let stamp = stamp(args, scale, &inputs, &e2e, &probes);
    report.insert(0, format!("stamp {stamp}"));
    let file = dir.join(format!(
        "seed-{}-trace{}.txt",
        args.seed,
        u8::from(args.trace)
    ));
    let mut saved: String = report.iter().map(|l| format!("# {l}\n")).collect();
    saved.push_str(&json);
    saved.push('\n');
    std::fs::write(&file, saved).map_err(|e| format!("writing {}: {e}", file.display()))?;
    let _ = std::fs::remove_dir_all(&data);
    Ok(Outcome {
        report,
        json,
        correct,
    })
}
