//! The repository's benchmark: the paper's §4 acceleration metric, plus
//! per-class latency, set-up time, CPU and memory, through four deployment
//! shapes of the SUT. See `NOTES.md` beside this file for why each
//! workload exists and what is left out.
//!
//! ```text
//! snb-benchmark --workload NAME --seed N --seconds S --trace 0|1 [--snb PATH]
//! ```
//!
//! A run repeats rounds — fresh set-up, a host-speed calibration, one
//! replay, the output check — until `--seconds` of replay time have been
//! measured. It prints one detail line (host envelope, sample counts,
//! effective percentiles) and, last, the result line. `--trace 0` reports
//! the end-to-end metrics; `--trace 1` alternates untraced and traced
//! rounds and reports the per-layer metrics. Every layer is timed from outside, at the calls the
//! benchmark makes into each crate's public API.

mod calib;
mod check;
mod host;
mod probe;
mod servers;
mod stats;
mod steal;

use probe::{Class, Probe, Sample};
use servers::Servers;
use snb_core::time::SimTime;
use snb_datagen::{generate, Dataset, GeneratorConfig};
use snb_driver::connector::{anchor_person, OpOutcome};
use snb_driver::{build_mix, run, updates_only, Connector, OpKind, Operation, RunReport, WorkItem};
use snb_driver::{DriverConfig, StoreConnector};
use snb_net::{NetConfig, RemoteConnector, ShardedConnector};
use snb_obs::trace::{self, NameId};
use snb_obs::HistogramSnapshot;
use snb_obs::Json;
use snb_params::{curated_bindings, Bindings};
use snb_queries::Engine;
use snb_store::{Store, SyncPolicy};
use std::collections::{BTreeMap, HashMap};
use std::ops::Range;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::sync::Arc;
use std::time::Instant;
use steal::Timeline;

/// Where the SUT runs.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Shape {
    /// `StoreConnector` in the benchmark's own process.
    InProc,
    /// `updates_only` into a `StoreConnector` over a store with a WAL
    /// attached (flush policy `never`: fsync time measures the disk, not
    /// the program), then the curated reads on the store it wrote.
    Wal,
    /// Child `snb serve` processes on loopback: one server, or `shards`
    /// shards behind a `ShardedConnector`; servers and benchmark share one
    /// CPU (see [`WORKLOADS`]).
    Remote { shards: u32 },
}

struct Workload {
    name: &'static str,
    persons: u64,
    partitions: usize,
    shape: Shape,
}

/// Scales are chosen so one replay takes about one to three seconds on a
/// 2-thread host: a run then holds ten or more rounds, each on its own
/// dataset, and `setup_s` is a median. The remote shapes run on one CPU:
/// on a shared virtual machine, every wake-up of an idle virtual CPU waits
/// for the hypervisor, and a loopback round trip wakes one several times
/// (see NOTES.md). `mix_loopback` is runnable by name but left out of
/// `BENCHMARK.json`; `mix_2shard` runs the net layer too.
const WORKLOADS: [Workload; 4] = [
    Workload { name: "mix_inproc", persons: 600, partitions: 2, shape: Shape::InProc },
    Workload { name: "updates_wal", persons: 1_000, partitions: 1, shape: Shape::Wal },
    Workload {
        name: "mix_loopback",
        persons: 250,
        partitions: 2,
        shape: Shape::Remote { shards: 1 },
    },
    Workload {
        name: "mix_2shard",
        persons: 250,
        partitions: 1,
        shape: Shape::Remote { shards: 2 },
    },
];

/// Consecutive calls behind each tail estimate (`stats::chunked_quantile`):
/// 2000 leaves twenty samples beyond a p99. On a host shared with other
/// tenants, a percentile pooled over a whole run mostly measured whether a
/// neighbour's burst happened to land in it.
const TAIL_CHUNK: usize = 2_000;

/// Most steal a stretch of a run may show and still be measured: the share
/// of the machine's CPU time the hypervisor gave to other guests. With two
/// CPUs sampled every 100 ms, one stolen 10 ms tick in a period is 5 %, so
/// this admits the periods with none. See [`stats::least_disturbed`].
const STEAL_LIMIT: f64 = 0.02;

/// Curated bindings per complex query, as `snb run` uses.
const BINDINGS_PER_QUERY: usize = 16;

/// Spans each traced op may leave in its thread's ring before sampling
/// must thin them out (8192 slots per thread; keep headroom).
const RING_BUDGET: usize = 6_000;
/// Upper estimate of spans one work item records (op root, execute, the
/// bench wrapper, and up to seven write stages or a few read spans).
const SPANS_PER_ITEM: usize = 12;

struct Args {
    workload: &'static Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    snb: PathBuf,
    work: PathBuf,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut flags: HashMap<&str, &str> = HashMap::new();
    for pair in argv.chunks(2) {
        match pair {
            [flag, value] if flag.starts_with("--") => {
                flags.insert(flag.as_str(), value.as_str());
            }
            _ => return Err(format!("expected --flag value pairs, got {pair:?}")),
        }
    }
    let get = |name: &str| flags.get(name).copied().ok_or(format!("missing {name}"));
    let name = get("--workload")?;
    let workload = WORKLOADS
        .iter()
        .find(|w| w.name == name)
        .ok_or_else(|| format!("unknown workload {name}"))?;
    let number = |name: &str| -> Result<f64, String> {
        get(name)?.parse::<f64>().map_err(|e| format!("{name}: {e}"))
    };
    let seconds = number("--seconds")?;
    if !(seconds > 0.0 && seconds <= 600.0) {
        return Err(format!("--seconds {seconds} out of range"));
    }
    Ok(Args {
        workload,
        seed: get("--seed")?.parse().map_err(|e| format!("--seed: {e}"))?,
        seconds,
        trace: match get("--trace")? {
            "0" => false,
            "1" => true,
            other => return Err(format!("--trace must be 0 or 1, got {other}")),
        },
        snb: PathBuf::from(flags.get("--snb").copied().unwrap_or("snb")),
        work: Path::new(".bench_work").join(workload.name),
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("snb-benchmark: {e}");
            eprintln!("usage: snb-benchmark --workload NAME --seed N --seconds S --trace 0|1 [--snb PATH]");
            return ExitCode::from(2);
        }
    };
    match bench(&args) {
        Ok(result) => {
            println!("{}", result.detail.render());
            println!("{}", result.line.render());
            if result.correct {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            }
        }
        Err(e) => {
            eprintln!("snb-benchmark: {e}");
            ExitCode::FAILURE
        }
    }
}

/// Everything one round measured.
struct Round {
    traced: bool,
    setup_s: f64,
    /// Simulated span and wall time of the replay `accel_x` is taken over.
    sim_ms: f64,
    replay_wall_s: f64,
    /// All replay time of the round, including the updates_wal read phase,
    /// and its start and end on the [`steal::ns_at`] clock.
    replay_s: f64,
    replay_ns: (u64, u64),
    /// Work items scheduled, and those executed; short reads the walk added.
    scheduled: u64,
    executed: u64,
    walk_shorts: u64,
    /// Every timed call, in the order the calls returned.
    samples: Vec<Sample>,
    cpu_s: f64,
    peak_rss_mb: f64,
    /// The host's [`calib::Kernel::slowness`] just before the replay.
    slowness: f64,
    layers: BTreeMap<String, f64>,
    /// Self time per span name, seconds (traced rounds only).
    self_s: BTreeMap<String, f64>,
    /// Output-check or run failure, if any.
    error: Option<String>,
}

struct BenchResult {
    correct: bool,
    detail: Json,
    line: Json,
}

fn bench(args: &Args) -> Result<BenchResult, String> {
    std::fs::create_dir_all(&args.work).map_err(|e| format!("{}: {e}", args.work.display()))?;
    let load_start = host::load_average();
    let monitor = steal::Monitor::start();
    let nproc = host::nproc();
    let pinned = match args.workload.shape {
        Shape::Remote { .. } => Some(host::pin_to_first_cpu()?),
        _ => None,
    };
    let kernel = calib::Kernel::new();
    let min_rounds = if args.trace { 4 } else { 3 };
    let mut rounds: Vec<Round> = Vec::new();
    let mut measured = 0.0;
    // A traced run ends on a whole pair of rounds.
    while rounds.len() < min_rounds
        || measured < args.seconds
        || (args.trace && rounds.len() % 2 == 1)
    {
        // In a traced run, round 2k + 1 replays round 2k's dataset with the
        // recorder on, so each pair compares one graph with and without it.
        let (index, traced) = match args.trace {
            true => (rounds.len() / 2, rounds.len() % 2 == 1),
            false => (rounds.len(), false),
        };
        let round = run_round(args, &kernel, round_seed(args.seed, index as u64), traced)?;
        measured += round.replay_s;
        let failed = round.error.is_some();
        rounds.push(round);
        if failed {
            break;
        }
    }
    let load_end = host::load_average();
    let steal = monitor.finish();
    Ok(summarize(args, &rounds, &steal, host::envelope(nproc, pinned, load_start, load_end)))
}

/// The dataset seed of round `round`. Each round generates its own dataset,
/// so one run's figures average over several graphs rather than resting on
/// the shape of one; the same `--seed` still gives the same inputs.
fn round_seed(seed: u64, round: u64) -> u64 {
    // SplitMix64 finalizer: nearby seeds give unrelated datasets.
    let mut z = seed.wrapping_add(round.wrapping_add(1).wrapping_mul(0x9E37_79B9_7F4A_7C15));
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

static SPAN_GENERATE: NameId = NameId::new("bench.generate");
static SPAN_CURATE: NameId = NameId::new("bench.curate");
static SPAN_BUILD_MIX: NameId = NameId::new("bench.build_mix");
static SPAN_BULK_LOAD: NameId = NameId::new("bench.bulk_load");
static SPAN_SERVERS_READY: NameId = NameId::new("bench.servers_ready");

/// Time `f` as a bench-side span and return its result with the seconds.
fn timed<T>(name: &NameId, f: impl FnOnce() -> T) -> (T, f64) {
    let _span = trace::span(name);
    let t0 = Instant::now();
    let out = f();
    (out, t0.elapsed().as_secs_f64())
}

/// The SUT of one round and the handles the benchmark keeps on it.
struct Sut {
    conn: Box<dyn Connector>,
    router: Option<Arc<ShardedConnector>>,
    servers: Option<Servers>,
}

fn run_round(
    args: &Args,
    kernel: &calib::Kernel,
    seed: u64,
    traced: bool,
) -> Result<Round, String> {
    let wl = args.workload;
    let round_start_us = trace::now_micros();
    host::reset_peak_rss();
    if traced {
        trace::enable(1);
    }
    let mut layers: BTreeMap<String, f64> = BTreeMap::new();
    let t0 = Instant::now();

    // ---- set-up: everything before the first operation can run ----
    let mut servers = match wl.shape {
        Shape::Remote { shards } => {
            Some(Servers::spawn(&args.snb, &args.work, wl.persons, seed, shards)?)
        }
        _ => None,
    };
    let config = GeneratorConfig::with_persons(wl.persons).seed(seed).threads(host::nproc());
    let (ds, generate_s) = timed(&SPAN_GENERATE, || generate(config));
    let ds = ds.map_err(|e| format!("datagen: {e}"))?;
    let (bindings, curate_s) = timed(&SPAN_CURATE, || curated_bindings(&ds, BINDINGS_PER_QUERY));
    let ((items, read_items), build_mix_s) = timed(&SPAN_BUILD_MIX, || {
        if wl.shape == Shape::Wal {
            (updates_only(&ds), post_replay_reads(&ds, &bindings))
        } else {
            (build_mix(&ds, &bindings), Vec::new())
        }
    });
    let mut bulk_load_s = 0.0;
    let mut servers_ready_s = 0.0;
    let wal = args.work.join("round.wal");
    let sut = match wl.shape {
        Shape::InProc | Shape::Wal => {
            let (store, secs) = timed(&SPAN_BULK_LOAD, || -> Result<Store, String> {
                let store = if wl.shape == Shape::Wal {
                    let _ = std::fs::remove_file(&wal);
                    Store::with_wal_policy(&wal, SyncPolicy::Never)
                        .map_err(|e| format!("{}: {e}", wal.display()))?
                } else {
                    Store::new()
                };
                store.bulk_load(&ds);
                Ok(store)
            });
            bulk_load_s = secs;
            let conn = StoreConnector::new(Arc::new(store?), Engine::Intended);
            Sut { conn: Box::new(conn), router: None, servers: None }
        }
        Shape::Remote { shards } => {
            let srv = servers.as_mut().expect("remote shapes spawn servers");
            let (ready, secs) = timed(&SPAN_SERVERS_READY, || srv.wait_ready());
            ready?;
            servers_ready_s = secs;
            let addrs = srv.addrs();
            let net = NetConfig::default();
            let (conn, router): (Box<dyn Connector>, _) = if shards == 1 {
                let conn = RemoteConnector::with_config(addrs[0].clone(), net)
                    .map_err(|e| format!("connect: {e}"))?;
                (Box::new(conn), None)
            } else {
                let router = Arc::new(
                    ShardedConnector::with_config(&addrs, net)
                        .map_err(|e| format!("connect: {e}"))?,
                );
                router.seed_routes(ds.message_routes());
                (Box::new(Arc::clone(&router)), Some(router))
            };
            Sut { conn, router, servers: servers.take() }
        }
    };
    let setup_s = t0.elapsed().as_secs_f64();
    let slowness = kernel.slowness();
    layers.insert("datagen.generate_s".into(), generate_s);
    layers.insert("params.curate_s".into(), curate_s);
    layers.insert("driver.build_mix_s".into(), build_mix_s);
    layers.insert("store.bulk_load_s".into(), bulk_load_s);
    layers.insert("net.server.ready_s".into(), servers_ready_s);

    // ---- replay ----
    let all_items = items.len() + read_items.len();
    let sample_every = (all_items * SPANS_PER_ITEM).div_ceil(wl.partitions * RING_BUDGET).max(1);
    if traced {
        trace::enable(sample_every as u64);
    }
    let driver_config = DriverConfig {
        partitions: wl.partitions,
        acceleration: None,
        seed,
        ..DriverConfig::default()
    };
    let server_cpu0 = sut.servers.as_ref().map_or(Vec::new(), Servers::cpu_seconds);
    let cpu0 = host::cpu_seconds(None);
    let replay_t0 = Instant::now();
    let replay_from_ns = steal::ns_at(replay_t0);
    let probe = Probe::new(sut.conn.as_ref());
    let mut outcome = run(&items, &probe, &driver_config);
    let main_slots = probe.into_samples();
    let mut read_slots = Vec::new();
    if outcome.is_ok() && !read_items.is_empty() {
        let probe = Probe::new(sut.conn.as_ref());
        let reads = run(&read_items, &probe, &driver_config);
        read_slots = probe.into_samples();
        outcome = outcome.and_then(|main| reads.map(|reads| with_reads_of(main, reads)));
    }
    let replay_end = Instant::now();
    let replay_s = replay_end.duration_since(replay_t0).as_secs_f64();
    let replay_ns = (replay_from_ns, steal::ns_at(replay_end));
    let cpu_s = host::cpu_seconds(None) - cpu0;
    let server_cpu_s: f64 = sut
        .servers
        .as_ref()
        .map_or(Vec::new(), Servers::cpu_seconds)
        .iter()
        .zip(server_cpu0.iter().chain(std::iter::repeat(&0.0)))
        .map(|(end, start)| end - start)
        .sum();
    let self_s = if traced {
        trace::disable();
        span_self_times(round_start_us, sample_every as f64)
    } else {
        BTreeMap::new()
    };

    let main_samples: u64 = main_slots.iter().map(|s| s.len() as u64).sum();
    let mut samples: Vec<Sample> =
        main_slots.iter().chain(&read_slots).flatten().copied().collect();
    samples.sort_by_key(|s| s.end_ns);
    let scheduled = all_items as u64;
    // No workload schedules short reads: every one comes from the walk.
    let walk_shorts = samples.iter().filter(|s| s.class() == Class::Short).count() as u64;
    let executed = samples.len() as u64 - walk_shorts;
    let (mut sim_ms, mut replay_wall_s) = (0.0, 0.0);
    let checked = match &outcome {
        Ok(report) => {
            sim_ms = report.sim_span_millis as f64;
            replay_wall_s = report.wall.as_secs_f64();
            let counters = merged_counters(&report.connector_counters);
            let histograms = merged_histograms(&report.connector_histograms);
            layer_metrics(&mut layers, wl, report, &counters, &histograms, &main_slots, &samples);
            layers.insert("driver.cpu_s".into(), cpu_s);
            layers.insert("net.server.cpu_s".into(), server_cpu_s);
            check_sut(&sut, &bindings, &items, &counters)
        }
        Err(e) => Err(format!("replay failed after {main_samples} calls: {e}")),
    };
    let mut peak_rss_mb = host::peak_rss_mb(None);
    let mut error = None;
    if let Some(mut srv) = sut.servers {
        peak_rss_mb = srv.peak_rss_mb();
        error = srv.check_alive().and_then(|()| srv.stop()).err();
    }
    // The SUT and its work items are gone before the oracle is built, so
    // the oracle never raises the benchmark's own peak resident set.
    drop((sut.conn, items, read_items));
    if wl.shape == Shape::Wal {
        // Unlinked before its dirty pages are written back, the log costs
        // the next run nothing.
        let _ = std::fs::remove_file(&wal);
    }
    // A server that died explains a failed replay, so its stderr tail is
    // reported ahead of the replay's own error.
    let error = match checked {
        Ok(check) => error.or(check.against_oracle(&ds).err()),
        Err(e) => Some(match error {
            Some(srv) => format!("{srv}\n{e}"),
            None => e,
        }),
    };
    Ok(Round {
        traced,
        setup_s,
        sim_ms,
        replay_wall_s,
        replay_s,
        replay_ns,
        scheduled,
        executed,
        walk_shorts,
        samples,
        cpu_s: cpu_s + server_cpu_s,
        slowness,
        peak_rss_mb,
        layers,
        self_s,
        error,
    })
}

/// The updates_wal read phase, run on the store the WAL pipeline just
/// wrote: every curated binding once, with the short-read walk the driver
/// adds after each. Not part of that workload's `accel_x`.
fn post_replay_reads(ds: &Dataset, bindings: &Bindings) -> Vec<WorkItem> {
    (1..=14)
        .flat_map(|q| bindings.all(q).iter().cloned())
        .map(|q| WorkItem {
            due: SimTime(ds.config.end.0 + 1),
            dep: SimTime(0),
            partition_hint: anchor_person(&q).map_or(0, |p| p.raw()),
            op: Operation::Complex(q),
        })
        .collect()
}

/// The update replay's report (pace, partitions, wall) with what the later
/// read phase saw: the SUT's counters and histograms after both, and the
/// operator profiles of the complex reads, which ran only there.
fn with_reads_of(main: RunReport, reads: RunReport) -> RunReport {
    RunReport {
        metrics: reads.metrics,
        connector_counters: reads.connector_counters,
        connector_histograms: reads.connector_histograms,
        ..main
    }
}

/// Counters by name with any `shard<i>.` prefix removed: one value per
/// shard (one in all for an unsharded SUT).
fn merged_counters(counters: &[(String, u64)]) -> HashMap<String, Vec<u64>> {
    let mut out: HashMap<String, Vec<u64>> = HashMap::new();
    for (name, value) in counters {
        out.entry(strip_shard(name).to_string()).or_default().push(*value);
    }
    out
}

fn merged_histograms(
    histograms: &[(String, HistogramSnapshot)],
) -> HashMap<String, HistogramSnapshot> {
    let mut out: HashMap<String, HistogramSnapshot> = HashMap::new();
    for (name, h) in histograms {
        out.entry(strip_shard(name).to_string()).or_default().merge(h);
    }
    out
}

fn strip_shard(name: &str) -> &str {
    match name.strip_prefix("shard").and_then(|rest| rest.split_once('.')) {
        Some((index, rest)) if index.chars().all(|c| c.is_ascii_digit()) => rest,
        _ => name,
    }
}

fn sum(counters: &HashMap<String, Vec<u64>>, name: &str) -> f64 {
    counters.get(name).map_or(0.0, |v| v.iter().sum::<u64>() as f64)
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// Per-layer numbers from the probe's timings and the counters and
/// histograms the program exports. A layer the workload does not run
/// reports 0.
fn layer_metrics(
    layers: &mut BTreeMap<String, f64>,
    wl: &Workload,
    report: &RunReport,
    counters: &HashMap<String, Vec<u64>>,
    histograms: &HashMap<String, HistogramSnapshot>,
    main_slots: &[Vec<Sample>],
    samples: &[Sample],
) {
    let mut set = |name: &str, v: f64| {
        layers.insert(name.to_string(), v);
    };
    let busy = |pred: &dyn Fn(&Sample) -> bool| {
        samples.iter().filter(|s| pred(s)).map(|s| s.nanos).sum::<u64>() as f64 / 1e9
    };

    // driver
    let ops = samples.len() as f64;
    set("driver.ops", ops);
    let per_partition: Vec<f64> =
        main_slots.iter().map(|s| s.iter().map(|x| x.nanos).sum::<u64>() as f64 / 1e9).collect();
    let execute_s: f64 = per_partition.iter().sum();
    let mean = execute_s / per_partition.len().max(1) as f64;
    set("driver.partition_skew", ratio(per_partition.iter().copied().fold(0.0, f64::max), mean));
    let gct_wait_s = report.partitions.iter().map(|p| p.gct_wait_micros).sum::<u64>() as f64 / 1e6;
    set("driver.gct_wait_s", gct_wait_s);
    set("driver.gct_parks", report.partitions.iter().map(|p| p.gct_parks).sum::<u64>() as f64);
    let wall = report.wall.as_secs_f64();
    set("driver.self_s", wl.partitions as f64 * wall - execute_s - gct_wait_s);

    // queries
    for q in 1..=14 {
        set(&format!("queries.Q{q}.busy_s"), busy(&|s| s.kind == OpKind::Complex(q)));
    }
    set("queries.short.busy_s", busy(&|s| s.class() == Class::Short));
    let (mut probes, mut rows) = (0u64, 0u64);
    for q in 1..=14 {
        if let Some(p) = report.metrics.profile(OpKind::Complex(q)) {
            probes += p.index_probes;
            rows += p.result_rows;
        }
    }
    set("queries.probes_per_row", ratio(probes as f64, rows as f64));

    // store
    set("store.update.busy_s", busy(&|s| s.class() == Class::Update));
    for stage in ["validate", "stripe_wait", "apply", "publish_wait", "wal_append"] {
        let nanos = histograms.get(&format!("store.stage.{stage}_nanos")).map_or(0, |h| h.sum);
        set(&format!("store.stage.{stage}_s"), nanos as f64 / 1e9);
    }
    let updates = samples.iter().filter(|s| s.class() == Class::Update).count() as f64;
    let reads = ops - updates;
    set("store.wal.bytes_per_update", ratio(sum(counters, "store.wal.bytes"), updates));
    let walked = sum(counters, "store.mvcc.versions_walked");
    let fastlane = sum(counters, "store.read.fastlane_entries");
    set("store.versions_per_read", ratio(walked, reads));
    set("store.fastlane_share", ratio(fastlane, fastlane + walked));
    set("store.mem.index_bytes", sum(counters, "store.mem.index_bytes"));
    let shards = counters.get("store.mem.bytes_per_message").map_or(0, Vec::len) as f64;
    set("store.mem.bytes_per_message", ratio(sum(counters, "store.mem.bytes_per_message"), shards));

    // net::router: what the reads a sharded router would scatter cost,
    // against the rest, on every shape.
    set("net.router.scatter.busy_s", busy(&|s| s.class() != Class::Update && s.scatters));
    set("net.router.routed.busy_s", busy(&|s| s.class() != Class::Update && !s.scatters));

    // net: the counters and histograms exist on the remote shapes only.
    let mean_of = |name: &str| histograms.get(name).map_or(0.0, |h| h.mean());
    let rtt = mean_of("net.client.request_micros");
    let service = mean_of("net.server.request_micros");
    set("net.client.rtt_mean_us", rtt);
    set("net.server.service_mean_us", service);
    set("net.gap_mean_us", rtt - service);
    let busy_ns = sum(counters, "net.server.loop_busy_nanos");
    let idle_ns = sum(counters, "net.server.loop_idle_nanos");
    set("net.server.loop_busy_share", ratio(busy_ns, busy_ns + idle_ns));
    let wire = sum(counters, "net.client.bytes_in") + sum(counters, "net.client.bytes_out");
    set("net.bytes_per_op", ratio(wire, ops));
    let per_shard: Vec<f64> = counters
        .get("net.server.requests")
        .map_or(Vec::new(), |v| v.iter().map(|&r| r as f64).collect());
    set("net.router.fanout", ratio(per_shard.iter().sum(), ops));
    let mean = per_shard.iter().sum::<f64>() / per_shard.len().max(1) as f64;
    set("net.router.shard_skew", ratio(per_shard.iter().copied().fold(0.0, f64::max), mean));
}

/// The check reads and what the SUT answered, awaiting the oracle.
struct SutAnswers {
    ops: Vec<Operation>,
    outcomes: Vec<OpOutcome>,
}

impl SutAnswers {
    /// Build the oracle and require the same answers from it.
    fn against_oracle(&self, ds: &Dataset) -> Result<(), String> {
        let store = Arc::new(Store::new());
        store.load_full(ds);
        let oracle = StoreConnector::new(store, Engine::Intended);
        let want = check::run_checks(&oracle, &self.ops).map_err(|e| format!("oracle: {e}"))?;
        check::compare(&self.ops, &self.outcomes, &want)
    }
}

/// Hold the SUT to the commit count and (sharded) the GCT invariant, and
/// run the check reads through the workload's own connector. A wrong
/// walk seed among the complex reads fails the comparison with the oracle
/// even though S4–S7 are anchored at it.
fn check_sut(
    sut: &Sut,
    bindings: &Bindings,
    items: &[WorkItem],
    counters: &HashMap<String, Vec<u64>>,
) -> Result<SutAnswers, String> {
    let shards = sut.router.as_ref().map_or(1, |r| r.shard_count());
    let want = check::expected_commits(items, shards);
    let commits = sum(counters, "store.txn.commits") as u64;
    if commits != want {
        return Err(format!("store.txn.commits is {commits}, expected {want}"));
    }
    if let Some(router) = &sut.router {
        router.gct_check().map_err(|e| format!("GCT check: {e}"))?;
    }
    let conn = sut.conn.as_ref();
    let ops = check::check_ops(bindings, conn).map_err(|e| format!("check reads: {e}"))?;
    let outcomes = check::run_checks(conn, &ops).map_err(|e| format!("check reads: {e}"))?;
    Ok(SutAnswers { ops, outcomes })
}

/// Self time per span name for the spans recorded since `since_us`,
/// in seconds. Replay spans were sampled 1-in-`sample_every` by root, so
/// they are scaled back up; the benchmark's set-up spans were not sampled.
fn span_self_times(since_us: u64, sample_every: f64) -> BTreeMap<String, f64> {
    let spans: Vec<_> = trace::drain().into_iter().filter(|s| s.start_us >= since_us).collect();
    let mut out: BTreeMap<String, f64> = BTreeMap::new();
    for (name, micros) in stats::self_times(&spans) {
        let Some(layer) = self_time_layer(&name) else { continue };
        let scale =
            if name.starts_with("bench.") && name != "bench.execute" { 1.0 } else { sample_every };
        *out.entry(layer).or_default() += micros as f64 / 1e6 * scale;
    }
    out
}

/// Span names whose self time is reported; `op.*` roots fold into one
/// line. Not reported: `driver.pace` (never opened in throughput mode),
/// `store.read.pin` (shorter than the spans' microsecond resolution),
/// `store.stage.validate_failed` (conflicts only) and `driver.gct_wait`
/// (rare enough that sampled roots seldom catch one; `driver.gct_wait_s`
/// has the exact total).
const SELF_TIME_SPANS: [&str; 19] = [
    "bench.generate",
    "bench.curate",
    "bench.build_mix",
    "bench.bulk_load",
    "driver.execute",
    "bench.execute",
    "store.stage.stripe_wait",
    "store.stage.validate",
    "store.stage.wal_append",
    "store.stage.reserve",
    "store.stage.apply",
    "store.stage.publish_wait",
    "store.stage.durable_wait",
    "store.read.ladder_merge",
    "store.read.recent_walk",
    "op",
    // Opened by the remote shapes only.
    "bench.servers_ready",
    "net.client.request",
    "server.execute",
];

fn self_time_layer(span: &str) -> Option<String> {
    let name = if span.starts_with("op.") { "op" } else { span };
    SELF_TIME_SPANS.contains(&name).then(|| format!("trace.self.{name}_s"))
}

// ---- reporting ----

struct Metric {
    name: String,
    unit: &'static str,
    value: f64,
    /// Samples behind the value: latency samples for percentiles, rounds
    /// for medians.
    samples: usize,
    percentile: Option<f64>,
    /// Stretches of the run the value was taken over, of all there were:
    /// rounds for `accel_x` and `cpu_ms_per_kop`, runs of [`TAIL_CHUNK`]
    /// calls for percentiles (see [`STEAL_LIMIT`]).
    measured: Option<(usize, usize)>,
}

fn median_metric(name: &str, unit: &'static str, values: &[f64]) -> Metric {
    Metric {
        name: name.to_string(),
        unit,
        value: stats::median(values).unwrap_or(0.0),
        samples: values.len(),
        percentile: None,
        measured: None,
    }
}

/// A ratio of sums over the rounds, so every operation weighs the same
/// whichever round's dataset it came from.
fn pooled_metric(
    name: &str,
    unit: &'static str,
    rounds: &[&Round],
    parts: impl Fn(&Round) -> (f64, f64),
) -> Metric {
    let (num, den) =
        rounds.iter().map(|r| parts(r)).fold((0.0, 0.0), |a, b| (a.0 + b.0, a.1 + b.1));
    Metric {
        name: name.to_string(),
        unit,
        value: ratio(num, den),
        samples: rounds.len(),
        percentile: None,
        measured: None,
    }
}

fn accel_x(rounds: &[&Round]) -> Metric {
    pooled_metric("accel_x", "x", rounds, |r| (r.sim_ms, r.replay_wall_s * 1e3))
}

/// The end-to-end metrics. Where the host is shared, two things set each
/// figure apart from the program. The hypervisor's steal: `accel_x` and
/// `cpu_ms_per_kop` pool only the rounds, and each percentile only the
/// runs of calls, that [`stats::least_disturbed`] picks by their steal
/// share. The host's speed: with `calibrated`, every time is divided by
/// the run's slowness, the median over its rounds of
/// [`calib::Kernel::slowness`] (the host drifts over minutes; one reading
/// is noisier than that), raised to [`calib::SENSITIVITY`]. `setup_s` and
/// `peak_rss_mb` are medians over all rounds.
fn end_to_end(rounds: &[&Round], steal: &Timeline, calibrated: bool) -> Vec<Metric> {
    let slowness = match calibrated {
        true => stats::median(&rounds.iter().map(|r| r.slowness).collect::<Vec<_>>()),
        false => None,
    }
    .map_or(1.0, |s| s.powf(calib::SENSITIVITY));
    let round_steal: Vec<f64> =
        rounds.iter().map(|r| steal.share(r.replay_ns.0, r.replay_ns.1)).collect();
    let keep = stats::least_disturbed(&round_steal, STEAL_LIMIT);
    let quiet: Vec<&Round> =
        rounds.iter().zip(&keep).filter(|(_, &k)| k).map(|(&r, _)| r).collect();
    let measured = Some((quiet.len(), rounds.len()));
    let setup: Vec<f64> = rounds.iter().map(|r| r.setup_s / slowness).collect();
    let accel =
        pooled_metric("accel_x", "x", &quiet, |r| (r.sim_ms, r.replay_wall_s * 1e3 / slowness));
    let mut out = vec![median_metric("setup_s", "s", &setup), Metric { measured, ..accel }];
    for class in Class::ALL {
        // In the order the calls returned, round by round.
        let calls: Vec<&Sample> =
            rounds.iter().flat_map(|r| &r.samples).filter(|s| s.class() == class).collect();
        let nanos: Vec<u64> =
            calls.iter().map(|s| (s.nanos as f64 / slowness).round() as u64).collect();
        let stolen = |run: Range<usize>| {
            let (first, last) = (calls[run.start], calls[run.end - 1]);
            steal.share(first.end_ns.saturating_sub(first.nanos), last.end_ns)
        };
        for want in [50.0, 99.0] {
            let c = stats::chunked_quantile(&nanos, TAIL_CHUNK, want, STEAL_LIMIT, stolen);
            out.push(Metric {
                name: format!("{}_p{}_us", class.name(), want as u32),
                unit: "us",
                value: c.map_or(0.0, |c| c.quantile.value as f64 / 1e3),
                samples: nanos.len(),
                percentile: c.map(|c| c.quantile.percentile),
                measured: c.map(|c| (c.kept, c.runs)),
            });
        }
    }
    let cpu = pooled_metric("cpu_ms_per_kop", "ms/kop", &quiet, |r| {
        (r.cpu_s * 1e3 / slowness, r.samples.len() as f64 / 1e3)
    });
    out.push(Metric { measured, ..cpu });
    let rss: Vec<f64> = rounds.iter().map(|r| r.peak_rss_mb).collect();
    out.push(median_metric("peak_rss_mb", "MiB", &rss));
    out
}

fn layer_unit(name: &str) -> &'static str {
    if name.ends_with("_s") {
        "s"
    } else if name.ends_with("_us") {
        "us"
    } else if name.ends_with("_bytes") || name.ends_with("bytes_per_message") {
        "bytes"
    } else if name.ends_with("_per_update") || name.ends_with("_per_op") {
        "bytes/op"
    } else if name.ends_with("_pct") {
        "%"
    } else if name == "driver.ops" || name == "driver.gct_parks" {
        "count"
    } else {
        "ratio"
    }
}

fn per_layer(rounds: &[Round]) -> Vec<Metric> {
    let plain: Vec<&Round> = rounds.iter().filter(|r| !r.traced).collect();
    let traced: Vec<&Round> = rounds.iter().filter(|r| r.traced).collect();
    let mut out = Vec::new();
    let names: Vec<&String> = plain.first().map_or(Vec::new(), |r| r.layers.keys().collect());
    for name in names {
        let values: Vec<f64> = plain.iter().filter_map(|r| r.layers.get(name).copied()).collect();
        out.push(median_metric(name, layer_unit(name), &values));
    }
    for name in SELF_TIME_SPANS.iter().filter_map(|s| self_time_layer(s)) {
        let values: Vec<f64> =
            traced.iter().map(|r| r.self_s.get(&name).copied().unwrap_or(0.0)).collect();
        out.push(median_metric(&name, "s", &values));
    }
    // Per pair of rounds on one dataset, untraced against traced.
    let overheads: Vec<f64> = rounds
        .chunks_exact(2)
        .map(|pair| (ratio(accel_x(&[&pair[0]]).value, accel_x(&[&pair[1]]).value) - 1.0) * 100.0)
        .collect();
    out.push(median_metric("trace.overhead_pct", "%", &overheads));
    out
}

fn summarize(args: &Args, rounds: &[Round], steal: &Timeline, host: Json) -> BenchResult {
    let errors: Vec<&String> = rounds.iter().filter_map(|r| r.error.as_ref()).collect();
    for e in &errors {
        eprintln!("snb-benchmark: {e}");
    }
    let correct = errors.is_empty();
    let scheduled: u64 = rounds.iter().map(|r| r.scheduled).sum();
    let executed: u64 = rounds.iter().map(|r| r.executed).sum();
    let walk: u64 = rounds.iter().map(|r| r.walk_shorts).sum();
    let all: Vec<&Round> = rounds.iter().collect();
    let (metrics, raw) = if args.trace {
        (per_layer(rounds), Vec::new())
    } else {
        (end_to_end(&all, steal, true), end_to_end(&all, steal, false))
    };
    let wl = args.workload;
    let detail = Json::obj([
        ("workload", Json::from(wl.name)),
        ("persons", Json::from(wl.persons)),
        ("seed", Json::from(args.seed)),
        ("partitions", Json::from(wl.partitions)),
        ("trace", Json::from(args.trace)),
        ("rounds", Json::from(rounds.len())),
        ("replay_s", Json::arr(rounds.iter().map(|r| Json::from(r.replay_s)))),
        ("accel_x", Json::arr(rounds.iter().map(|r| Json::from(accel_x(&[r]).value)))),
        ("slowness", Json::arr(rounds.iter().map(|r| Json::from(r.slowness)))),
        (
            "steal_share",
            Json::arr(rounds.iter().map(|r| Json::from(steal.share(r.replay_ns.0, r.replay_ns.1)))),
        ),
        ("host", host),
        (
            "metrics",
            Json::obj(metrics.iter().enumerate().map(|(i, m)| {
                let mut o = Json::obj([
                    ("value", Json::from(m.value)),
                    ("unit", Json::from(m.unit)),
                    ("samples", Json::from(m.samples)),
                ]);
                // The same figure before calibration (end-to-end only).
                if let Some(uncalibrated) = raw.get(i) {
                    o.push_field("uncalibrated", uncalibrated.value);
                }
                if let Some(p) = m.percentile {
                    o.push_field("percentile", p);
                }
                if let Some((kept, of)) = m.measured {
                    o.push_field("measured", Json::arr([Json::from(kept), Json::from(of)]));
                }
                (m.name.clone(), o)
            })),
        ),
        ("errors", Json::arr(errors.iter().map(|e| Json::from(e.as_str())))),
    ]);
    let line = Json::obj([
        ("correct", Json::from(correct)),
        ("attempted", Json::from(scheduled + walk)),
        ("failed", Json::from(scheduled.saturating_sub(executed))),
        (
            "metrics",
            Json::obj(metrics.iter().map(|m| {
                (
                    m.name.clone(),
                    Json::obj([("value", Json::from(m.value)), ("unit", Json::from(m.unit))]),
                )
            })),
        ),
    ]);
    BenchResult { correct, detail: Json::obj([("detail", detail)]), line }
}
