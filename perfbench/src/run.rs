//! One benchmark run: set-up, the untraced closed-loop run, the
//! reference check and, with `--trace 1`, the traced run.

use crate::check::{Answer, Reference, Verdict};
use crate::load::{closed_loop, interleaved, send, LoadRun};
use crate::served::{serve, Mounted, SetupTimes, IO_TIMEOUT};
use crate::spec::{spec, Inputs, Spec, K, WORKERS};
use crate::stats::{median, quantile, ratio};
use crate::trace::{self, Span, Timed, TimedSource, TracedScan};
use earthmover_core::lower_bounds::{
    DistanceMeasure, ExactEmd, LbAvg, LbIm, RUNG_BLAND, RUNG_DENSE_LP,
};
use earthmover_core::multistep::{CandidateSource, QueryResult, RtreeSource};
use earthmover_core::pipeline::QueryEngine;
use earthmover_core::reduce::AvgReducer;
use earthmover_core::stats::QueryStats;
use earthmover_core::{HistogramDb, RetrievalMode};
use earthmover_serve::protocol::{
    encode_request_full, encode_response, read_frame, Request, Response, DEFAULT_MAX_FRAME_LEN,
};
use earthmover_serve::{Client, Outcome};
use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

/// Command-line settings of one run.
#[derive(Debug, Clone)]
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: u64,
    pub trace: bool,
    pub smoke: bool,
}

/// One named metric value.
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
}

/// What a run reports.
pub struct Report {
    /// Every answer matched the reference.
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<Metric>,
    /// Where the spans of the traced run were written.
    pub trace_file: Option<PathBuf>,
}

/// Scratch directory for the paged column file, removed on drop.
struct WorkDir(PathBuf);

impl WorkDir {
    fn create(root: &Path) -> Result<WorkDir, String> {
        let dir = root.join(format!("run-{}", std::process::id()));
        std::fs::create_dir_all(&dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
        Ok(WorkDir(dir))
    }
}

impl Drop for WorkDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// The untraced run's findings.
struct Served {
    setups: Vec<SetupTimes>,
    load: LoadRun,
    timed: Verdict,
    /// Wrong answers anywhere: warm-up, timed, traced or in-process.
    wrong_total: u64,
    /// Near-tied rows that swapped places with the reference's.
    tie_swaps: u64,
}

pub fn run(args: &Args, work_root: &Path) -> Result<Report, String> {
    let spec = spec(&args.workload, args.smoke)
        .ok_or_else(|| format!("unknown workload {}", args.workload))?;
    let inputs = Inputs::generate(&spec, args.seed);
    let sketch_seed = args.seed;
    let work = WorkDir::create(work_root)?;
    let window = match spec.smoke_window_ms {
        Some(ms) => Duration::from_millis(ms),
        None => Duration::from_secs(args.seconds),
    };
    let mut order = interleaved(&inputs);
    order.truncate(spec.trace_queries);

    let mut setups = Vec::new();
    for _ in 1..spec.setup_repeats {
        let (times, _, ()) = serve(&spec, &inputs, &work.0, sketch_seed, |_, _| Ok(()))?;
        setups.push(times);
    }
    let (times, mounted, (load, served_trace)) =
        serve(&spec, &inputs, &work.0, sketch_seed, |addr, db| {
            let load = closed_loop(addr, db, &inputs, spec.sketch_only, window)?;
            let traced = if args.trace {
                Some(traced_served_pass(
                    addr,
                    db,
                    &inputs,
                    &order,
                    spec.sketch_only,
                )?)
            } else {
                None
            };
            Ok((load, traced))
        })?;
    setups.push(times);

    let reference = Reference::compute(&spec, &inputs, sketch_seed, WORKERS)?;
    let mut timed = Verdict::default();
    let mut warm = Verdict::default();
    for r in &load.records {
        let v = if r.timed { &mut timed } else { &mut warm };
        v.judge(&reference, r.query, &r.outcome, spec.sketch_only);
    }
    let mut served = Served {
        setups,
        load,
        timed,
        wrong_total: timed.wrong + warm.wrong,
        tie_swaps: timed.tie_swaps + warm.tie_swaps,
    };

    let mut metrics = Vec::new();
    let mut trace_file = None;
    if args.trace {
        let served_trace = served_trace.expect("traced pass ran");
        let mut check = Verdict::default();
        for (q, outcome) in order.iter().zip(&served_trace.outcomes) {
            check.judge(&reference, *q, outcome, spec.sketch_only);
        }
        // One engine serves the untraced and the traced passes, so both
        // read the same R-tree and sketch arena. The traced replay runs
        // between the two untraced passes, from the same filter-cache
        // state as the one-thread pass.
        let Mounted { db, sketch } = mounted;
        let mut builder = QueryEngine::builder(&db, &inputs.grid);
        if let Some(tier) = sketch {
            builder = builder.sketch(tier);
        }
        let engine = builder.build();
        let (latencies, answers) = one_thread(&spec, &inputs, &engine, &db, &order)?;
        let replay = replay(&spec, &inputs, &engine, &db, &order)?;
        let two_thread_wall = two_threads(&spec, &inputs, &engine, &db, &order)?;
        let in_process = InProcess {
            latencies,
            answers,
            two_thread_wall,
        };
        for (q, items) in order
            .iter()
            .chain(&order)
            .zip(in_process.answers.iter().chain(&replay.answers))
        {
            let got: Vec<(u64, f64)> = items.iter().map(|(i, d)| (*i as u64, *d)).collect();
            if !reference.agrees(*q, &got, spec.sketch_only, &mut check.tie_swaps) {
                check.wrong += 1;
                eprintln!("wrong in-process answer to query {q}: got {got:?}");
            }
        }
        served.wrong_total += check.wrong;
        served.tie_swaps += check.tie_swaps;
        let path = work_root.join(format!("trace-{}.jsonl", spec.name));
        let mut spans = served_trace.spans.clone();
        append_spans(&mut spans, &replay.spans);
        trace::write_jsonl(&spans, &path).map_err(|e| format!("write {}: {e}", path.display()))?;
        trace_file = Some(path);
        per_layer(
            &mut metrics,
            &spec,
            &inputs,
            &served,
            &served_trace,
            &in_process,
            &replay,
        );
    } else {
        end_to_end(&mut metrics, &served);
    }
    if served.tie_swaps > 0 {
        eprintln!(
            "note: {} answer positions held a row tied with the reference's within {:e}",
            served.tie_swaps,
            crate::check::REL_TOL
        );
    }
    Ok(Report {
        correct: served.wrong_total == 0,
        attempted: served.timed.attempted,
        failed: served.timed.failed(),
        metrics,
        trace_file,
    })
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

fn end_to_end(out: &mut Vec<Metric>, served: &Served) {
    let timed: Vec<_> = served.load.records.iter().filter(|r| r.timed).collect();
    let latencies: Vec<f64> = timed.iter().map(|r| ms(r.latency)).collect();
    let completed = timed
        .iter()
        .filter(|r| matches!(r.outcome, Ok(Outcome::Complete { .. })))
        .count();
    let v = &served.timed;
    let totals: Vec<f64> = served.setups.iter().map(SetupTimes::total).collect();
    let mut push = |name, value, unit| out.push(Metric { name, value, unit });
    push(
        "qps",
        completed as f64 / served.load.window.as_secs_f64(),
        "1/s",
    );
    push(
        "latency_p50_ms",
        quantile(&latencies, 0.5).unwrap_or(0.0),
        "ms",
    );
    push(
        "latency_p90_ms",
        quantile(&latencies, 0.9).unwrap_or(0.0),
        "ms",
    );
    push(
        "success_rate",
        1.0 - ratio(v.failed() as f64, v.attempted as f64),
        "ratio",
    );
    push("recall_at_k", v.recall(), "ratio");
    push("setup_s", median(&totals), "s");
}

/// The served call of every query, one at a time on one connection.
struct ServedTrace {
    spans: Vec<Span>,
    /// Server-reported engine time per query, in nanoseconds.
    server_ns: Vec<u64>,
    outcomes: Vec<Result<Outcome, String>>,
}

fn traced_served_pass(
    addr: SocketAddr,
    db: &HistogramDb,
    inputs: &Inputs,
    order: &[usize],
    sketch_only: bool,
) -> Result<ServedTrace, String> {
    db.filter_cache().invalidate();
    let mut client = Client::connect(addr, IO_TIMEOUT).map_err(|e| format!("connect: {e}"))?;
    let _ = trace::take();
    let mut server_ns = Vec::with_capacity(order.len());
    let mut outcomes = Vec::with_capacity(order.len());
    for (qid, &q) in order.iter().enumerate() {
        trace::set_query(qid as u32);
        let outcome = {
            let _s = trace::span("serve.client");
            send(&mut client, inputs, q, sketch_only).map_err(|e| e.to_string())
        };
        server_ns.push(match &outcome {
            Ok(Outcome::Complete { stats, .. }) | Ok(Outcome::Partial { stats, .. }) => {
                stats.elapsed.as_nanos() as u64
            }
            _ => 0,
        });
        outcomes.push(outcome);
    }
    Ok(ServedTrace {
        spans: trace::take(),
        server_ns,
        outcomes,
    })
}

/// The in-process engine, untraced: one thread, then two.
struct InProcess {
    /// One-thread latency per query of `order`, in seconds.
    latencies: Vec<f64>,
    answers: Vec<Answer>,
    /// Wall time of the same queries split over one thread per server
    /// worker.
    two_thread_wall: f64,
}

fn engine_query(
    engine: &QueryEngine<'_>,
    inputs: &Inputs,
    q: usize,
    sketch_only: bool,
) -> Result<QueryResult, String> {
    let h = &inputs.queries[q];
    let result = if sketch_only {
        engine.knn_mode(h, K, RetrievalMode::SketchOnly)
    } else {
        engine.knn(h, K)
    };
    result.map_err(|e| format!("in-process query failed: {e}"))
}

/// Every query of `order` in turn on one thread: latencies in seconds,
/// and the answers.
fn one_thread(
    spec: &Spec,
    inputs: &Inputs,
    engine: &QueryEngine<'_>,
    db: &HistogramDb,
    order: &[usize],
) -> Result<(Vec<f64>, Vec<Answer>), String> {
    db.filter_cache().invalidate();
    let mut latencies = Vec::with_capacity(order.len());
    let mut answers = Vec::with_capacity(order.len());
    for &q in order {
        let t = Instant::now();
        let result = engine_query(engine, inputs, q, spec.sketch_only)?;
        latencies.push(t.elapsed().as_secs_f64());
        answers.push(result.items);
    }
    Ok((latencies, answers))
}

/// The queries of `order` split round-robin over one thread per server
/// worker; the wall time in seconds.
fn two_threads(
    spec: &Spec,
    inputs: &Inputs,
    engine: &QueryEngine<'_>,
    db: &HistogramDb,
    order: &[usize],
) -> Result<f64, String> {
    db.filter_cache().invalidate();
    let t = Instant::now();
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..WORKERS)
            .map(|c| {
                scope.spawn(move || {
                    order.iter().skip(c).step_by(WORKERS).try_for_each(|&q| {
                        engine_query(engine, inputs, q, spec.sketch_only).map(drop)
                    })
                })
            })
            .collect();
        handles
            .into_iter()
            .try_for_each(|h| h.join().expect("in-process thread panicked"))
    })?;
    Ok(t.elapsed().as_secs_f64())
}

/// The traced in-process replay of every query of `order`.
struct Replay {
    spans: Vec<Span>,
    answers: Vec<Answer>,
    stats: Vec<QueryStats>,
}

fn replay(
    spec: &Spec,
    inputs: &Inputs,
    engine: &QueryEngine<'_>,
    db: &HistogramDb,
    order: &[usize],
) -> Result<Replay, String> {
    let cost = inputs.grid.cost_matrix();
    let centroids = inputs.grid.centroids().to_vec();
    let source: Option<Box<dyn CandidateSource + '_>> = if spec.sketch_only {
        None
    } else if db.is_paged() {
        Some(Box::new(TimedSource {
            inner: TracedScan::new(db, LbAvg::new(centroids)),
        }))
    } else {
        Some(Box::new(TimedSource {
            inner: RtreeSource::build(db, AvgReducer::new(centroids)),
        }))
    };
    let im = Timed::new(LbIm::new(&cost), "lb_im.prepare", "lb_im.eval");
    let exact = Timed::new(ExactEmd::new(cost), "exact.prepare", "exact.eval");
    db.filter_cache().invalidate();
    let _ = trace::take();
    let mut answers = Vec::with_capacity(order.len());
    let mut stats = Vec::with_capacity(order.len());
    let wire = |e: earthmover_serve::WireError| format!("codec: {e}");
    for (qid, &q) in order.iter().enumerate() {
        trace::set_query(qid as u32);
        let _root = trace::span("replay");
        let request = Request::Knn {
            k: K as u32,
            deadline_us: 0,
            histogram: inputs.queries[q].clone(),
        };
        let mode = spec.sketch_only.then_some(RetrievalMode::SketchOnly);
        let frame = {
            let _s = trace::span("serve.encode_request");
            encode_request_full(qid as u64, &request, None, mode).map_err(wire)?
        };
        let decoded = {
            let _s = trace::span("serve.decode_request");
            read_frame(&mut frame.as_slice(), DEFAULT_MAX_FRAME_LEN)
                .map_err(wire)?
                .ok_or("codec: empty frame")?
                .into_request_ext()
                .map_err(wire)?
        };
        let Request::Knn { histogram, .. } = decoded.0 else {
            return Err("codec: request changed type".into());
        };
        let result = match (&source, engine.sketch_tier()) {
            (None, Some(tier)) => {
                let _p = trace::span("pipeline.knn");
                let items = {
                    let _s = trace::span("sketch.knn");
                    tier.knn(&histogram, K)
                }
                .map_err(|e| format!("sketch: {e}"))?;
                QueryResult {
                    items,
                    stats: QueryStats::default(),
                }
            }
            (Some(source), _) => trace::engine_knn(
                source.as_ref(),
                db,
                &histogram,
                &[&im as &dyn DistanceMeasure],
                &exact,
            )
            .map_err(|e| format!("replay query failed: {e}"))?,
            (None, None) => return Err("sketch-only workload without a sketch tier".into()),
        };
        let response = Response::Results {
            items: result.items.iter().map(|(i, d)| (*i as u64, *d)).collect(),
            stats: result.stats.clone(),
        };
        let bytes = {
            let _s = trace::span("serve.encode_response");
            encode_response(qid as u64, &response)
        };
        let back = {
            let _s = trace::span("serve.decode_response");
            read_frame(&mut bytes.as_slice(), DEFAULT_MAX_FRAME_LEN)
                .map_err(wire)?
                .ok_or("codec: empty frame")?
                .into_response()
                .map_err(wire)?
        };
        let Response::Results { items, .. } = back else {
            return Err("codec: response changed type".into());
        };
        answers.push(items.iter().map(|(i, d)| (*i as usize, *d)).collect());
        stats.push(result.stats);
    }
    Ok(Replay {
        spans: trace::take(),
        answers,
        stats,
    })
}

/// Appends `more` to `spans`, shifting its parent indices.
fn append_spans(spans: &mut Vec<Span>, more: &[Span]) {
    let offset = spans.len() as u32;
    spans.extend(more.iter().map(|s| Span {
        parent: s.parent.map(|p| p + offset),
        ..*s
    }));
}

#[allow(clippy::too_many_arguments)]
fn per_layer(
    out: &mut Vec<Metric>,
    spec: &Spec,
    inputs: &Inputs,
    served: &Served,
    served_trace: &ServedTrace,
    in_process: &InProcess,
    replay: &Replay,
) {
    let mut push = |name, value, unit| out.push(Metric { name, value, unit });
    let v = &served.timed;
    let timed: Vec<_> = served.load.records.iter().filter(|r| r.timed).collect();
    let answered: Vec<(Duration, &QueryStats)> = timed
        .iter()
        .filter_map(|r| match &r.outcome {
            Ok(Outcome::Complete { stats, .. }) => Some((r.latency, stats)),
            _ => None,
        })
        .collect();
    let n = answered.len().max(1) as f64;
    let sum = |f: &dyn Fn(&QueryStats) -> f64| answered.iter().map(|(_, s)| f(s)).sum::<f64>();
    let lb_im_name = LbIm::new(&inputs.grid.cost_matrix()).name();
    let lb_im_evals = |s: &QueryStats| {
        s.filter_evaluations
            .iter()
            .filter(|(name, _)| name == lb_im_name)
            .map(|(_, c)| *c as f64)
            .sum::<f64>()
    };
    let candidate_evals = |s: &QueryStats| {
        if spec.sketch_only {
            0.0
        } else {
            s.total_filter_evaluations() as f64 - lb_im_evals(s)
        }
    };

    // serve
    let overhead: Vec<f64> = answered
        .iter()
        .map(|(lat, s)| ms(lat.saturating_sub(s.elapsed)))
        .collect();
    push("serve.overhead_p50_ms", median(&overhead), "ms");
    let spans = &replay.spans;
    let self_ns = trace::self_times(spans);
    let mut codec_per_query = vec![0u64; replay.answers.len()];
    for s in spans.iter().filter(|s| s.layer() == "serve") {
        codec_per_query[s.query as usize] += s.duration_ns();
    }
    let codec: Vec<f64> = codec_per_query.iter().map(|&ns| ns as f64 / 1e3).collect();
    push("serve.codec_us", median(&codec), "us");
    push("serve.shed", v.shed as f64, "count");
    push("serve.partial", v.partial as f64, "count");
    push("serve.errors", v.errors as f64, "count");

    // pipeline
    let layers = trace::layer_self_ns(spans);
    let layer_ms = |name: &str| layers.get(name).copied().unwrap_or(0) as f64 / 1e6;
    let nq = replay.answers.len().max(1) as f64;
    let engine_spans: Vec<usize> = (0..spans.len())
        .filter(|&i| spans[i].name == "pipeline.knn")
        .collect();
    let engine_ns: u64 = engine_spans.iter().map(|&i| spans[i].duration_ns()).sum();
    let engine_self_ns: u64 = engine_spans.iter().map(|&i| self_ns[i]).sum();
    let one_thread_s: f64 = in_process.latencies.iter().sum();
    push(
        "pipeline.knn_p50_ms",
        median(&in_process.latencies) * 1e3,
        "ms",
    );
    let qps1 = ratio(in_process.latencies.len() as f64, one_thread_s);
    let qps2 = ratio(
        in_process.latencies.len() as f64,
        in_process.two_thread_wall,
    );
    push(
        "pipeline.parallel_efficiency",
        ratio(qps2, WORKERS as f64 * qps1),
        "ratio",
    );
    push(
        "pipeline.unattributed_frac",
        ratio(engine_self_ns as f64, engine_ns as f64),
        "ratio",
    );

    // candidates
    push("candidates.ms_per_query", layer_ms("candidates") / nq, "ms");
    push(
        "candidates.filter_evals_per_query",
        sum(&candidate_evals) / n,
        "count",
    );
    push(
        "candidates.node_accesses_per_query",
        sum(&|s| s.node_accesses as f64) / n,
        "count",
    );

    // lb_im
    let exact_evals = sum(&|s| s.exact_evaluations as f64);
    let results = sum(&|s| s.results as f64);
    push("lb_im.ms_per_query", layer_ms("lb_im") / nq, "ms");
    push("lb_im.evals_per_query", sum(&lb_im_evals) / n, "count");
    let passed = sum(&|s| s.exact_evaluations.saturating_sub(s.results) as f64);
    push("lb_im.pass_frac", ratio(passed, sum(&lb_im_evals)), "ratio");

    // exact
    let replay_pairs: f64 = replay
        .stats
        .iter()
        .map(|s| s.exact_evaluations as f64)
        .sum();
    push("exact.ms_per_query", layer_ms("exact") / nq, "ms");
    push("exact.evals_per_query", exact_evals / n, "count");
    push(
        "exact.us_per_pair",
        ratio(layer_ms("exact") * 1e3, replay_pairs),
        "us",
    );
    push(
        "exact.result_frac",
        if spec.sketch_only {
            0.0
        } else {
            ratio(results, exact_evals)
        },
        "ratio",
    );
    let recovered = answered
        .iter()
        .filter(|(_, s)| {
            s.degradations
                .iter()
                .any(|d| d == RUNG_BLAND || d == RUNG_DENSE_LP)
        })
        .count();
    push("exact.recovered", recovered as f64, "count");
    push(
        "exact.engine_share",
        ratio(layer_ms("exact") * 1e6, engine_ns as f64),
        "ratio",
    );

    // storage and filter cache: counter deltas over the untraced window
    let c = &served.load.caches;
    let timed_n = timed.len().max(1) as f64;
    let pool_total = (c.pool_hits + c.pool_misses + c.pool_bypasses) as f64;
    push(
        "storage.pool_hit_rate",
        ratio(c.pool_hits as f64, pool_total),
        "ratio",
    );
    push(
        "storage.pool_misses_per_query",
        c.pool_misses as f64 / timed_n,
        "count",
    );
    push(
        "storage.pool_evictions_per_query",
        c.pool_evictions as f64 / timed_n,
        "count",
    );
    push("storage.block_ms_per_query", layer_ms("storage") / nq, "ms");
    push(
        "filter_cache.hit_rate",
        ratio(
            c.filter_hits as f64,
            (c.filter_hits + c.filter_misses) as f64,
        ),
        "ratio",
    );

    // sketch
    let sketch: Vec<f64> = spans
        .iter()
        .filter(|s| s.name == "sketch.knn")
        .map(|s| s.duration_ns() as f64 / 1e6)
        .collect();
    push("sketch.knn_p50_ms", median(&sketch), "ms");

    // setup
    let setup =
        |f: fn(&SetupTimes) -> f64| median(&served.setups.iter().map(f).collect::<Vec<_>>());
    push("setup.ingest_s", setup(|t| t.ingest_s), "s");
    push("setup.paged_write_s", setup(|t| t.paged_write_s), "s");
    push("setup.sketch_build_s", setup(|t| t.sketch_build_s), "s");
    push("setup.engine_build_s", setup(|t| t.engine_build_s), "s");

    // trace: the share of the served round trip the layers explain — the
    // serve layer's part outright, the engine's in the split the replay
    // measured — and what tracing cost the replay
    let rtt_ns: u64 = served_trace.spans.iter().map(Span::duration_ns).sum();
    let server_ns: u64 = served_trace.server_ns.iter().sum();
    let serve_self = rtt_ns.saturating_sub(server_ns) as f64;
    let explained = 1.0 - ratio(engine_self_ns as f64, engine_ns as f64);
    push(
        "trace.coverage",
        ratio(serve_self + server_ns as f64 * explained, rtt_ns as f64),
        "ratio",
    );
    push(
        "trace.overhead_frac",
        ratio(engine_ns as f64 / 1e9, one_thread_s) - 1.0,
        "ratio",
    );
}
