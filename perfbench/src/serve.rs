//! `serve_mix`: the serving daemon with the default `ServeConfig` on the
//! `serve_mix()` families.
//!
//! * Set-up starts the server and sends one request down every lane, so
//!   artifact compilation (cold misses) lands in `setup_s`, not latency.
//! * Phase A is an open loop: seeded Poisson arrivals at [`RATE`]
//!   requests per second, each for a seeded family and trial count. One
//!   thread submits on schedule, one collects; latency runs from each
//!   request's due time to its response.
//! * Phase B submits bursts of [`BURST`] requests at once and drains them,
//!   to measure capacity.
//!
//! Every response is checked against `Server::run_solo` over the same
//! absolute trials, and the first trials against the baseline interpreter,
//! after the timed phases.

use crate::check::{self, Trials};
use crate::report::{Report, Tally};
use crate::schedule::{self, Arrival};
use crate::stats::{self, median, open_loop_latency, summarize};
use crate::trace::Tracer;
use crate::Ctx;
use distill_serve::{
    ServeConfig, ServeError, ServeStats, Server, TelemetrySnapshot, Ticket, TrialRequest,
};
use std::sync::mpsc;
use std::time::{Duration, Instant};

/// Phase A arrival rate, requests per second.
const RATE: f64 = 400.0;
/// Share of the run's seconds given to phase A; phase B, whose drain time
/// is the end-to-end metric, gets the rest.
const OPEN_LOOP_SHARE: f64 = 0.3;
/// Phase A's share in the traced pass, whose serve layers explain open-loop
/// latency.
const TRACED_OPEN_LOOP_SHARE: f64 = 0.7;
/// Untimed open-loop traffic before phase A, so worker engines, staging
/// buffers and caches are warm when timing starts.
const WARMUP_S: f64 = 1.0;
/// Phase A is summarized per window of about this many seconds (1 000
/// requests at [`RATE`], enough for a p99 per window); the reported
/// latency is the median over windows.
const WINDOW_S: f64 = 2.5;
/// Requests per phase B burst.
const BURST: usize = 500;
/// Fewest bursts per run (per side in the traced pass).
const MIN_BURSTS: usize = 3;
/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 7;
/// Leading trials of each lane also checked against the baseline
/// interpreter (which can only run from trial 0).
const BASELINE_TRIALS: usize = 64;
/// Trials per `run_solo` call when checking, so the check spreads over the
/// cores.
const CHECK_PIECE: usize = 1024;

/// A response kept for the output check.
struct Served {
    family: usize,
    start: usize,
    trials: Trials,
}

struct Mix {
    names: Vec<&'static str>,
    config: ServeConfig,
}

impl Mix {
    fn new() -> Mix {
        Mix {
            names: distill_models::serve_mix().iter().map(|s| s.name).collect(),
            config: ServeConfig::default(),
        }
    }

    fn request(&self, a: &Arrival) -> TrialRequest {
        TrialRequest::new(self.names[a.family], a.trials)
    }
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Count a response as an operation and keep it for the check.
fn keep(
    tally: &mut Tally,
    served: &mut Vec<Served>,
    family: usize,
    result: Result<distill_serve::TrialResponse, ServeError>,
) -> Option<Duration> {
    let resp =
        tally.op(result.map_err(|e| format!("serve_mix request to lane {family} failed: {e}")))?;
    let latency = resp.latency;
    served.push(Served {
        family,
        start: resp.start,
        trials: Trials {
            outputs: resp.outputs,
            passes: resp.passes,
        },
    });
    Some(latency)
}

/// Server start to the first response on every lane. Returns the server,
/// the seconds it took, and each lane's first-response milliseconds.
fn setup(mix: &Mix, tally: &mut Tally, served: &mut Vec<Served>) -> (Server, f64, Vec<f64>) {
    let t0 = Instant::now();
    let server = Server::start(mix.config.clone());
    let mut first = Vec::new();
    for (family, name) in mix.names.iter().enumerate() {
        let t = Instant::now();
        let result = server
            .submit(TrialRequest::new(*name, 1))
            .and_then(Ticket::wait);
        first.push(ms(t.elapsed()));
        keep(tally, served, family, result);
    }
    (server, t0.elapsed().as_secs_f64(), first)
}

/// The median of several set-ups, the server of the last one, and each
/// lane's median first-response milliseconds.
fn setups(
    mix: &Mix,
    tally: &mut Tally,
    served: &mut Vec<Served>,
) -> (Server, Vec<f64>, Vec<Vec<f64>>) {
    let mut secs = Vec::new();
    let mut first: Vec<Vec<f64>> = vec![Vec::new(); mix.names.len()];
    let mut server = None;
    for _ in 0..SETUPS {
        // Shut the previous server down first so set-ups do not overlap.
        drop(server.take());
        let (s, t, f) = setup(mix, tally, served);
        secs.push(t);
        for (lane, v) in first.iter_mut().zip(f) {
            lane.push(v);
        }
        server = Some(s);
    }
    (server.expect("at least one set-up"), secs, first)
}

/// What phase A measured, per request.
#[derive(Default)]
struct OpenLoop {
    /// Due time, seconds from the start of the schedule.
    due_s: Vec<f64>,
    /// Due to response; infinite for a request that failed.
    latency_ms: Vec<f64>,
    /// Due to the start of `submit`: how late the generator ran.
    lag_ms: Vec<f64>,
    submit_us: Vec<f64>,
    /// `TrialResponse::latency`, submit to demux as the server saw it.
    server_ms: Vec<f64>,
}

struct Sent {
    id: usize,
    family: usize,
    due: Instant,
    submit_start: Instant,
    submitted: Instant,
    ticket: Result<Ticket, ServeError>,
}

fn sleep_until(t: Instant) {
    while let Some(d) = t.checked_duration_since(Instant::now()) {
        std::thread::sleep(d);
    }
}

/// Phase A: one thread submits each request when it is due, this thread
/// redeems the tickets in submission order.
fn open_loop(
    server: &Server,
    mix: &Mix,
    arrivals: &[Arrival],
    tracer: &mut Tracer,
    tally: &mut Tally,
    served: &mut Vec<Served>,
) -> OpenLoop {
    let (tx, rx) = mpsc::channel::<Sent>();
    let client = server.client();
    let mut out = OpenLoop::default();
    std::thread::scope(|scope| {
        let submitter = scope.spawn(move || {
            let t0 = Instant::now();
            for (id, a) in arrivals.iter().enumerate() {
                let due = t0 + a.due;
                sleep_until(due);
                let submit_start = Instant::now();
                let ticket = client.submit(mix.request(a));
                let sent = Sent {
                    id,
                    family: a.family,
                    due,
                    submit_start,
                    submitted: Instant::now(),
                    ticket,
                };
                if tx.send(sent).is_err() {
                    return;
                }
            }
        });
        for s in rx {
            let wait_start = Instant::now();
            let result = s.ticket.and_then(Ticket::wait);
            let wait_end = Instant::now();
            out.due_s.push(arrivals[s.id].due.as_secs_f64());
            out.lag_ms
                .push(ms(s.submit_start.saturating_duration_since(s.due)));
            out.submit_us.push(ms(s.submitted - s.submit_start) * 1e3);
            let latency = match keep(tally, served, s.family, result) {
                Some(server_latency) => {
                    out.server_ms.push(ms(server_latency));
                    open_loop_latency(s.due, s.submitted, server_latency, wait_end)
                }
                None => Duration::MAX,
            };
            out.latency_ms.push(if latency == Duration::MAX {
                f64::INFINITY
            } else {
                ms(latency)
            });
            let id = Some(s.id as u64);
            let done = s.due + latency.min(wait_end - s.due);
            let root = tracer.record("serve.request", s.due, done, None, id);
            tracer.record("serve.submit", s.submit_start, s.submitted, root, id);
            tracer.record("serve.wait", wait_start, wait_end, root, id);
        }
        submitter.join().expect("submitter thread panicked");
    });
    out
}

/// Phase B: submit every request of `burst` at once, then drain. Returns
/// the drain milliseconds and the trials completed.
fn burst(
    server: &Server,
    mix: &Mix,
    burst: &[Arrival],
    id: u64,
    tracer: &mut Tracer,
    tally: &mut Tally,
    served: &mut Vec<Served>,
) -> (f64, usize) {
    let t0 = Instant::now();
    tracer.begin("serve.burst", Some(id));
    let tickets: Vec<_> = burst
        .iter()
        .map(|a| tracer.time("serve.submit", Some(id), || server.submit(mix.request(a))))
        .collect();
    let results: Vec<_> = tickets
        .into_iter()
        .map(|t| tracer.time("serve.wait", Some(id), || t.and_then(Ticket::wait)))
        .collect();
    let drain = ms(t0.elapsed());
    tracer.end();
    let mut trials = 0;
    for (a, result) in burst.iter().zip(results) {
        if keep(tally, served, a.family, result).is_some() {
            trials += a.trials;
        }
    }
    (drain, trials)
}

/// Compare every kept response with `run_solo` over the same absolute
/// trials, and the leading trials with the baseline interpreter. Runs on
/// every core, after the timed phases.
fn check_served(ctx: &Ctx, server: &Server, mix: &Mix, served: &[Served], tally: &mut Tally) {
    let lanes = mix.names.len();
    let mut end = vec![0usize; lanes];
    for s in served {
        end[s.family] = end[s.family].max(s.start + s.trials.outputs.len());
    }
    let pieces: Vec<(usize, usize)> = (0..lanes)
        .flat_map(|f| (0..end[f]).step_by(CHECK_PIECE).map(move |lo| (f, lo)))
        .collect();
    let tasks: Vec<check::Task<'_, Result<Trials, String>>> = pieces
        .iter()
        .map(|&(f, lo)| {
            let n = CHECK_PIECE.min(end[f] - lo);
            Box::new(move || {
                server
                    .run_solo(mix.names[f], lo, n)
                    .map(|r| Trials {
                        outputs: r.outputs,
                        passes: r.passes,
                    })
                    .map_err(|e| format!("serve_mix {}: run_solo failed: {e}", mix.names[f]))
            }) as check::Task<'_, _>
        })
        .collect();
    let mut solo: Vec<Trials> = vec![Trials::default(); lanes];
    for (&(f, _), piece) in pieces.iter().zip(check::in_parallel(ctx.nproc, tasks)) {
        if let Some(piece) = tally.op(piece) {
            solo[f].outputs.extend(piece.outputs);
            solo[f].passes.extend(piece.passes);
        }
    }
    let baselines: Vec<Option<Trials>> = mix
        .names
        .iter()
        .map(|name| {
            let spec = distill_models::by_name(name).expect("serve_mix families are registered");
            let w = spec.build(mix.config.scale);
            tally
                .op(check::baseline(spec, &w.model, &w.inputs, BASELINE_TRIALS))
                .flatten()
        })
        .collect();
    for s in served {
        let what = format!(
            "serve_mix {} trials {}+{}",
            mix.names[s.family],
            s.start,
            s.trials.outputs.len()
        );
        let want = solo[s.family].slice(s.start, s.trials.outputs.len());
        tally.check(
            want.ok_or_else(|| format!("{what}: no solo run covers the range"))
                .and_then(|want| check::exact(&what, &s.trials, &want))
                .and_then(|()| match &baselines[s.family] {
                    Some(b) => check::close(&what, &s.trials, s.start, b),
                    None => Ok(()),
                }),
        );
    }
}

/// Counter movement over the timed phases, and telemetry movement over
/// phase A (whose latency the wait and service times explain).
struct Delta {
    stats: (ServeStats, ServeStats),
    telemetry: (TelemetrySnapshot, TelemetrySnapshot),
}

impl Delta {
    /// Mean of a telemetry histogram over the interval, in milliseconds.
    fn histogram_mean_ms(&self, name: &str) -> f64 {
        let (a, b) = (
            self.telemetry.0.histogram(name),
            self.telemetry.1.histogram(name),
        );
        let (count, sum) = match (a, b) {
            (Some(a), Some(b)) => (b.count - a.count, b.sum - a.sum),
            (None, Some(b)) => (b.count, b.sum),
            _ => (0, 0),
        };
        if count == 0 {
            0.0
        } else {
            sum as f64 / count as f64 / 1e6
        }
    }
}

/// Phase A latency summarized per window: the median over windows of each
/// window's median and of its tail, at the highest percentile every window
/// supports.
struct Windowed {
    p50: f64,
    tail: f64,
    tail_pct: f64,
    n: usize,
    windows: usize,
}

fn windowed(a: &OpenLoop, values: &[f64], length: f64) -> Windowed {
    let samples: Vec<(f64, f64)> = a
        .due_s
        .iter()
        .copied()
        .zip(values.iter().copied())
        .collect();
    let wins = stats::windows(&samples, 0.0, length, WINDOW_S);
    let tail_pct = wins
        .iter()
        .map(|w| stats::tail_percentile(w.len()))
        .collect::<Option<Vec<f64>>>()
        .and_then(|pcts| pcts.into_iter().reduce(f64::min));
    let p50s: Vec<f64> = wins.iter().map(|w| median(w)).collect();
    let tail = match tail_pct {
        Some(pct) => median(
            &wins
                .iter()
                .map(|w| stats::percentile(w, pct))
                .collect::<Vec<_>>(),
        ),
        None => f64::NAN,
    };
    Windowed {
        p50: median(&p50s),
        tail,
        tail_pct: tail_pct.unwrap_or(f64::NAN),
        n: wins.iter().map(Vec::len).sum(),
        windows: wins.len(),
    }
}

/// The open-loop schedules: an untimed warm-up, then phase A.
fn schedules(rng: &mut schedule::Rng, mix: &Mix, length: f64) -> (Vec<Arrival>, Vec<Arrival>) {
    let lanes = mix.names.len();
    let warmup = schedule::open_loop(rng, RATE, Duration::from_secs_f64(WARMUP_S), lanes);
    let phase_a = schedule::open_loop(rng, RATE, Duration::from_secs_f64(length), lanes);
    (warmup, phase_a)
}

pub fn end_to_end(ctx: &Ctx) -> Report {
    let mut report = Report::default();
    let mix = Mix::new();
    let mut served = Vec::new();
    let mut rng = ctx.rng("serve_mix.schedule");
    let length = ctx.seconds * OPEN_LOOP_SHARE;
    let (warmup, arrivals) = schedules(&mut rng, &mix, length);
    let (server, setup_secs, _) = setups(&mix, &mut report.tally, &mut served);
    let mut tracer = Tracer::new(Instant::now(), false);

    open_loop(
        &server,
        &mix,
        &warmup,
        &mut tracer,
        &mut report.tally,
        &mut served,
    );
    let a = open_loop(
        &server,
        &mix,
        &arrivals,
        &mut tracer,
        &mut report.tally,
        &mut served,
    );

    let start = Instant::now();
    let phase_b = ctx.seconds * (1.0 - OPEN_LOOP_SHARE);
    let (mut drains, mut tps) = (Vec::new(), Vec::new());
    while drains.len() < MIN_BURSTS || start.elapsed().as_secs_f64() < phase_b {
        let requests = schedule::burst(&mut rng, BURST, mix.names.len());
        let id = drains.len() as u64;
        let (drain, trials) = burst(
            &server,
            &mix,
            &requests,
            id,
            &mut tracer,
            &mut report.tally,
            &mut served,
        );
        drains.push(drain);
        tps.push(trials as f64 / (drain / 1e3));
    }
    check_served(ctx, &server, &mix, &served, &mut report.tally);

    let lat = windowed(&a, &a.latency_ms, length);
    report.metric("setup_s", median(&setup_secs), "s", setup_secs.len());
    report.metric("round_ms", median(&drains), "ms", drains.len());
    report.extra("serve_p50_ms", lat.p50, "ms", lat.n);
    report.extra("serve_tail_ms", lat.tail, "ms", lat.n);
    report.extra("serve_tail_percentile", lat.tail_pct, "pct", lat.n);
    report.extra("serve_latency_windows", lat.windows as f64, "count", 1);
    report.extra("serve_burst_tps", median(&tps), "1/s", tps.len());
    let lag = summarize(&a.lag_ms);
    report.extra("serve.gen_lag_ms", lag.tail, "ms", lag.n);
    report
}

/// The traced pass: set-ups (first response per lane), a traced open loop,
/// and alternating untraced and traced bursts (their median ratio is the
/// tracing overhead), with the server's counters and telemetry over the
/// timed phases.
pub fn layers(ctx: &Ctx, budget: f64) -> (Report, f64) {
    let mut report = Report::default();
    let mix = Mix::new();
    let mut served = Vec::new();
    let mut rng = ctx.rng("serve_mix.schedule");
    let length = budget * TRACED_OPEN_LOOP_SHARE;
    let (warmup, arrivals) = schedules(&mut rng, &mix, length);
    let (server, _, first) = setups(&mix, &mut report.tally, &mut served);
    let mut tracer = Tracer::new(Instant::now(), false);
    open_loop(
        &server,
        &mix,
        &warmup,
        &mut tracer,
        &mut report.tally,
        &mut served,
    );

    let before = (server.stats(), server.telemetry());
    tracer.set_enabled(true);
    let a = open_loop(
        &server,
        &mix,
        &arrivals,
        &mut tracer,
        &mut report.tally,
        &mut served,
    );
    let after_a = server.telemetry();

    let start = Instant::now();
    let phase_b = budget - length;
    let (mut plain, mut traced) = (Vec::new(), Vec::new());
    let mut id = 0u64;
    while traced.len() < MIN_BURSTS || start.elapsed().as_secs_f64() < phase_b {
        for (on, drains) in [(false, &mut plain), (true, &mut traced)] {
            tracer.set_enabled(on);
            let requests = schedule::burst(&mut rng, BURST, mix.names.len());
            drains.push(
                burst(
                    &server,
                    &mix,
                    &requests,
                    id,
                    &mut tracer,
                    &mut report.tally,
                    &mut served,
                )
                .0,
            );
            id += 1;
        }
    }
    let delta = Delta {
        stats: (before.0, server.stats()),
        telemetry: (before.1, after_a),
    };
    check_served(ctx, &server, &mix, &served, &mut report.tally);

    let (s0, s1) = &delta.stats;
    let spans = (s1.spans - s0.spans).max(1) as f64;
    let trials = (s1.trials - s0.trials) as f64;
    let lag = summarize(&a.lag_ms);
    let server_lat = summarize(&a.server_ms);
    let lat = windowed(&a, &a.latency_ms, length);
    report.metric("serve.latency_p50_ms", lat.p50, "ms", lat.n);
    report.metric("serve.latency_tail_ms", lat.tail, "ms", lat.n);
    report.metric("serve.gen_lag_ms", lag.tail, "ms", lag.n);
    report.metric(
        "serve.submit_us",
        median(&a.submit_us),
        "us",
        a.submit_us.len(),
    );
    report.metric(
        "serve.server_latency_p50_ms",
        server_lat.p50,
        "ms",
        server_lat.n,
    );
    report.metric(
        "serve.server_latency_tail_ms",
        server_lat.tail,
        "ms",
        server_lat.n,
    );
    report.metric(
        "serve.wait_ms",
        delta.histogram_mean_ms("serve.wait_ns"),
        "ms",
        1,
    );
    report.metric(
        "serve.service_ms",
        delta.histogram_mean_ms("serve.service_ns"),
        "ms",
        1,
    );
    report.metric("serve.trials_per_span", trials / spans, "count", 1);
    report.metric(
        "serve.coalesced_span_frac",
        (s1.coalesced_spans - s0.coalesced_spans) as f64 / spans,
        "ratio",
        1,
    );
    let calls = (s1.batch_calls - s0.batch_calls).max(1) as f64;
    report.metric(
        "serve.batch_fill",
        trials / calls / mix.config.batch as f64,
        "ratio",
        1,
    );
    report.metric(
        "serve.requeued_trials",
        (s1.requeued_trials - s0.requeued_trials) as f64,
        "count",
        1,
    );
    report.metric("serve.shed", (s1.shed - s0.shed) as f64, "count", 1);
    report.metric(
        "serve.cache_hits",
        (s1.cache.hits - s0.cache.hits) as f64,
        "count",
        1,
    );
    report.metric(
        "serve.cache_misses",
        (s1.cache.misses - s0.cache.misses) as f64,
        "count",
        1,
    );
    for (name, lane) in mix.names.iter().zip(&first) {
        report.metric(
            format!("serve.first_response_ms.{name}"),
            median(lane),
            "ms",
            lane.len(),
        );
    }
    eprint!("{}", tracer.summary());
    (report, median(&traced) / median(&plain))
}
