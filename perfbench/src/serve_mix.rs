//! `serve_mix`: an in-process `twocs_serve::Server` driven over
//! loopback, closed loop, on two keep-alive connections. The seeded mix
//! is 70% repeats of 16 canonical queries (parameters in permuted
//! order, so the response cache's key canonicalization must match
//! them), 25% unique projection sweeps of 100–5,000 points that miss
//! the cache, and 5% invalid queries that must answer `400`.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use twocs::analysis::sweep::GridSweep;
use twocs::serve::handlers::{handle, HandlerConfig};
use twocs::serve::http::Request;
use twocs::serve::{ResponseCache, ServeStats, Server, ServerConfig, ShutdownHandle};

use crate::util::{
    cache_stats, clear_memo_caches, cpu_seconds, median, note, nproc, peak_rss_kb, percentile,
    steal_seconds, Outcome, Rng, Spans,
};

/// Requests per block; every block holds exactly `HOT` hot, `COLD`
/// cold and `INVALID` invalid requests, in seeded order.
pub const BLOCK: usize = 100;
pub const HOT: usize = 70;
pub const COLD: usize = 25;
pub const INVALID: usize = 5;
/// Keep-alive connections, one closed-loop caller each.
const CONNECTIONS: usize = 2;
/// Blocks per round. A round is one fresh server answering a fixed
/// request list; the server's memo caches grow with every unique sweep
/// it answers, so rounds, not one ever-longer server, fill `--seconds`,
/// and every round does the same work however fast it runs.
const BLOCKS_PER_ROUND: u64 = 5;
/// Rounds per run at the least; `setup_s` is the median over rounds.
const MIN_ROUNDS: usize = 3;
/// Every `ORACLE_EVERY`-th request's body is re-derived by the oracle.
const ORACLE_EVERY: usize = 41;
/// Largest unique sweep a cold request asks for.
const MAX_COLD_POINTS: usize = 5000;

#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Class {
    Hot,
    Cold,
    Invalid,
}

impl Class {
    fn expected_status(self) -> u16 {
        match self {
            Class::Hot | Class::Cold => 200,
            Class::Invalid => 400,
        }
    }
}

#[derive(Debug, Clone, PartialEq)]
pub struct Req {
    pub class: Class,
    pub path: &'static str,
    pub query: String,
}

/// The 16 canonical queries behind every hot request.
const HOT_QUERIES: [(&str, &[(&str, &str)]); 16] = [
    (
        "/v1/serialized",
        &[
            ("h", "4096,16384"),
            ("sl", "2048"),
            ("tp", "16,64"),
            ("flop_vs_bw", "1,2"),
            ("method", "proj"),
        ],
    ),
    ("/v1/serialized", &[("method", "sim"), ("format", "csv")]),
    (
        "/v1/serialized",
        &[
            ("h", "16384"),
            ("sl", "2048,4096"),
            ("tp", "16,64"),
            ("method", "sim"),
        ],
    ),
    (
        "/v1/sweep",
        &[
            ("h", "8192"),
            ("sl", "1024,2048"),
            ("tp", "8,16"),
            ("flop_vs_bw", "1,4"),
            ("method", "proj"),
            ("format", "json"),
        ],
    ),
    (
        "/v1/sweep",
        &[
            ("h", "32768"),
            ("sl", "4096"),
            ("tp", "32,64,128"),
            ("method", "proj"),
            ("workload", "prefill"),
        ],
    ),
    (
        "/v1/sweep",
        &[
            ("h", "16384"),
            ("sl", "2048"),
            ("tp", "16"),
            ("experts", "8,16"),
            ("top_k", "1,2"),
            ("method", "proj"),
        ],
    ),
    (
        "/v1/overlapped",
        &[("h", "4096"), ("sl", "2048"), ("tp", "16"), ("dp", "4")],
    ),
    (
        "/v1/overlapped",
        &[("h", "16384"), ("slb", "8192"), ("tp", "64"), ("dp", "8")],
    ),
    (
        "/v1/overlapped",
        &[
            ("h", "65536"),
            ("sl", "4096"),
            ("b", "2"),
            ("tp", "256"),
            ("dp", "2"),
            ("format", "csv"),
        ],
    ),
    (
        "/v1/overlapped",
        &[("h", "8192"), ("sl", "1024"), ("tp", "8")],
    ),
    (
        "/v1/evolve",
        &[
            ("flop_vs_bw", "2"),
            ("h", "16384"),
            ("sl", "2048"),
            ("tp", "64"),
            ("method", "proj"),
        ],
    ),
    (
        "/v1/evolve",
        &[
            ("flop_vs_bw", "4"),
            ("h", "4096"),
            ("tp", "16"),
            ("method", "sim"),
        ],
    ),
    (
        "/v1/evolve",
        &[
            ("flop_vs_bw", "1.5"),
            ("h", "65536"),
            ("sl", "4096"),
            ("tp", "256"),
            ("method", "proj"),
            ("format", "csv"),
        ],
    ),
    (
        "/v1/evolve",
        &[
            ("flop_vs_bw", "8"),
            ("h", "32768"),
            ("tp", "128"),
            ("method", "proj"),
        ],
    ),
    (
        "/v1/sweep",
        &[
            ("h", "4096,8192"),
            ("sl", "2048"),
            ("tp", "4,8,16"),
            ("flop_vs_bw", "1,2,4"),
            ("method", "proj"),
            ("stages", "1,4"),
            ("micro_batches", "1,8"),
        ],
    ),
    (
        "/v1/serialized",
        &[
            ("h", "65536"),
            ("sl", "2048"),
            ("tp", "64,256"),
            ("flop_vs_bw", "1,2,4"),
            ("method", "sim"),
            ("format", "ascii"),
        ],
    ),
];

/// One invalid query per slot of a block.
const INVALID_QUERIES: [(&str, &[(&str, &str)]); INVALID] = [
    (
        "/v1/sweep",
        &[("h", "1000"), ("tp", "16"), ("method", "proj")],
    ),
    (
        "/v1/serialized",
        &[("flop_vs_bw", "0.5"), ("method", "proj")],
    ),
    ("/v1/sweep", &[("hs", "4096"), ("method", "proj")]),
    ("/v1/evolve", &[("flop_vs_bw", "2"), ("method", "fast")]),
    ("/v1/overlapped", &[("sl", "2048"), ("tp", "16")]),
];

/// The fixed shape of one cold sweep: every axis but `flop_vs_bw`,
/// plus how many distinct ratios the seed fills in.
#[derive(Debug, Clone)]
pub struct ColdTemplate {
    params: Vec<(&'static str, String)>,
    ratios: usize,
    pub points: usize,
}

fn join(values: &[u64]) -> String {
    values
        .iter()
        .map(u64::to_string)
        .collect::<Vec<_>>()
        .join(",")
}

/// The `COLD` sweep shapes of a block, log-spaced from 100 to 5,000
/// points and cycling through the training, prefill and decode
/// workloads. Each is the candidate shape whose point count lies
/// closest to its target; sizes come from the H/SL/TP and MoE/SP/PP
/// axes and at most two flop-vs-bw ratios, because every distinct ratio
/// evolves (and profiles) a device of its own. The shapes do not depend
/// on the seed, so neither does any point count.
pub fn cold_templates() -> Vec<ColdTemplate> {
    const HS: [u64; 6] = [2048, 4096, 8192, 16_384, 32_768, 65_536];
    const SLS: [u64; 4] = [1024, 2048, 4096, 8192];
    const TPS: [u64; 5] = [4, 8, 16, 32, 64];
    const EXTENDED: [&[(&str, &[u64])]; 4] = [
        &[],
        &[("experts", &[1, 8]), ("top_k", &[1, 2])],
        &[("experts", &[1, 8]), ("top_k", &[1, 2]), ("sp", &[1, 2])],
        &[
            ("experts", &[1, 8]),
            ("top_k", &[1, 2]),
            ("sp", &[1, 2]),
            ("stages", &[1, 4]),
            ("micro_batches", &[1, 8]),
        ],
    ];
    let mut candidates = Vec::new();
    for n_h in 1..=HS.len() {
        for n_sl in 1..=SLS.len() {
            for n_tp in 2..=TPS.len() {
                for extended in EXTENDED {
                    for ratios in 1..=2 {
                        let mut grid = GridSweep {
                            hs: HS[HS.len() - n_h..].to_vec(),
                            sls: SLS[..n_sl].to_vec(),
                            tps: TPS[..n_tp].to_vec(),
                            flop_vs_bw: (1..=ratios).map(f64::from).collect(),
                            method: twocs::analysis::serialized::Method::Projection,
                            ..GridSweep::default()
                        };
                        let mut params = vec![
                            ("h", join(&grid.hs)),
                            ("sl", join(&grid.sls)),
                            ("tp", join(&grid.tps)),
                            ("method", "proj".to_owned()),
                        ];
                        for &(name, values) in extended {
                            params.push((name, join(values)));
                            let axis = match name {
                                "experts" => &mut grid.experts,
                                "top_k" => &mut grid.top_ks,
                                "sp" => &mut grid.sps,
                                "stages" => &mut grid.stages,
                                _ => &mut grid.micro_batches,
                            };
                            *axis = values.to_vec();
                        }
                        let points = grid.point_count();
                        candidates.push(ColdTemplate {
                            params,
                            ratios: ratios as usize,
                            points,
                        });
                    }
                }
            }
        }
    }
    (0..COLD)
        .map(|k| {
            let target = 100.0 * 50f64.powf(k as f64 / (COLD - 1) as f64);
            let distance = |t: &ColdTemplate| (t.points as f64 / target).ln().abs();
            let mut t = candidates
                .iter()
                .filter(|t| (100..=MAX_COLD_POINTS).contains(&t.points))
                .min_by(|a, b| distance(a).total_cmp(&distance(b)))
                .expect("a candidate fits every target")
                .clone();
            t.params.push((
                "workload",
                ["training", "prefill", "decode"][k % 3].to_owned(),
            ));
            t
        })
        .collect()
}

fn query(rng: &mut Rng, params: &[(&str, String)]) -> String {
    let mut pairs: Vec<String> = params.iter().map(|(k, v)| format!("{k}={v}")).collect();
    rng.shuffle(&mut pairs);
    pairs.join("&")
}

fn fixed(params: &[(&'static str, &str)]) -> Vec<(&'static str, String)> {
    params.iter().map(|&(k, v)| (k, v.to_owned())).collect()
}

/// Block `b` of the request stream for `seed`: its own generator, so
/// any block is reproducible on its own.
pub fn block(seed: u64, b: u64, templates: &[ColdTemplate]) -> Vec<Req> {
    let mut rng = Rng::new(seed ^ b.wrapping_mul(0xA076_1D64_78BD_642F));
    let mut reqs = Vec::with_capacity(BLOCK);
    for _ in 0..HOT {
        let (path, params) = HOT_QUERIES[rng.below(HOT_QUERIES.len())];
        let query = query(&mut rng, &fixed(params));
        reqs.push(Req {
            class: Class::Hot,
            path,
            query,
        });
    }
    for t in templates {
        let ratios: Vec<String> = (0..t.ratios)
            .map(|_| format!("{:.4}", 1.0 + 7.0 * rng.unit()))
            .collect();
        let mut params = t.params.clone();
        params.push(("flop_vs_bw", ratios.join(",")));
        let query = query(&mut rng, &params);
        reqs.push(Req {
            class: Class::Cold,
            path: "/v1/sweep",
            query,
        });
    }
    for (path, params) in INVALID_QUERIES {
        let query = query(&mut rng, &fixed(params));
        reqs.push(Req {
            class: Class::Invalid,
            path,
            query,
        });
    }
    rng.shuffle(&mut reqs);
    reqs
}

/// The request list of round `round`.
pub fn requests(seed: u64, round: u64) -> Vec<Req> {
    let templates = cold_templates();
    (round * BLOCKS_PER_ROUND..(round + 1) * BLOCKS_PER_ROUND)
        .flat_map(|b| block(seed, b, &templates))
        .collect()
}

fn handler_config(cache: Option<Arc<ResponseCache>>) -> HandlerConfig {
    HandlerConfig {
        max_grid_points: MAX_COLD_POINTS,
        cache,
        ..HandlerConfig::default()
    }
}

/// A keep-alive HTTP/1.1 client connection.
struct Client {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
}

impl Client {
    fn connect(addr: SocketAddr) -> std::io::Result<Self> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(Duration::from_secs(30)))?;
        Ok(Self {
            reader: BufReader::new(stream.try_clone()?),
            writer: stream,
        })
    }

    /// Send one GET and read its whole response: `(status, body)`.
    fn get(&mut self, path: &str, query: &str) -> std::io::Result<(u16, String)> {
        let head = format!("GET {path}?{query} HTTP/1.1\r\nHost: bench\r\n\r\n");
        self.writer.write_all(head.as_bytes())?;
        let bad =
            |what: &str| std::io::Error::new(std::io::ErrorKind::InvalidData, what.to_owned());
        let mut line = String::new();
        self.reader.read_line(&mut line)?;
        let status = line
            .split_whitespace()
            .nth(1)
            .and_then(|s| s.parse().ok())
            .ok_or_else(|| bad("bad status line"))?;
        let mut length = None;
        loop {
            line.clear();
            if self.reader.read_line(&mut line)? == 0 {
                return Err(bad("connection closed mid-head"));
            }
            let header = line.trim_end();
            if header.is_empty() {
                break;
            }
            if let Some((name, value)) = header.split_once(':') {
                if name.eq_ignore_ascii_case("content-length") {
                    length = value.trim().parse::<usize>().ok();
                }
            }
        }
        let mut body = vec![0; length.ok_or_else(|| bad("no content-length"))?];
        self.reader.read_exact(&mut body)?;
        String::from_utf8(body)
            .map(|b| (status, b))
            .map_err(|_| bad("body is not utf-8"))
    }
}

/// A running server with its shutdown trigger.
struct Running {
    addr: SocketAddr,
    shutdown: ShutdownHandle,
    thread: JoinHandle<ServeStats>,
}

impl Running {
    fn start(jobs: usize) -> Result<Self, String> {
        let server = Server::bind(ServerConfig {
            addr: "127.0.0.1:0".to_owned(),
            jobs,
            max_requests_per_conn: u64::MAX,
            handler: handler_config(None),
            ..ServerConfig::default()
        })
        .map_err(|e| format!("bind: {e}"))?;
        let addr = server
            .local_addr()
            .map_err(|e| format!("local addr: {e}"))?;
        let shutdown = server.shutdown_handle();
        let thread = std::thread::spawn(move || server.run());
        Ok(Self {
            addr,
            shutdown,
            thread,
        })
    }

    fn stop(self) -> Result<ServeStats, String> {
        self.shutdown.trigger();
        self.thread
            .join()
            .map_err(|_| "server thread panicked".to_owned())
    }
}

/// Bind a fresh server (memo caches cleared) and send each hot query
/// once. Returns the server, its connections, the set-up time and the
/// warm-up statuses that were not 200.
fn set_up(jobs: usize) -> Result<(Running, Vec<Client>, Duration, u64), String> {
    clear_memo_caches();
    let started = Instant::now();
    let server = Running::start(jobs)?;
    let mut clients = (0..CONNECTIONS)
        .map(|_| Client::connect(server.addr))
        .collect::<std::io::Result<Vec<_>>>()
        .map_err(|e| format!("connect: {e}"))?;
    let mut bad = 0;
    for (path, params) in HOT_QUERIES {
        let query = query(&mut Rng::new(0), &fixed(params));
        let (status, _) = clients[0]
            .get(path, &query)
            .map_err(|e| format!("warm-up: {e}"))?;
        bad += u64::from(status != 200);
    }
    Ok((server, clients, started.elapsed(), bad))
}

/// One answered request, in request-list order.
#[derive(Debug, Clone)]
pub struct Answer {
    pub status: u16,
    pub latency: Duration,
    /// Kept for the oracle on every `ORACLE_EVERY`-th request.
    pub body: Option<String>,
}

/// Drive `reqs` closed loop: each caller takes the next unsent request
/// of the list and sends it on its own connection only after its
/// previous reply. Taking the next one, rather than every second one,
/// keeps a caller from idling while the other works through more of the
/// round's cold sweeps, which would make a round's wall depend on how
/// the seed happened to split them.
fn drive(
    addr: SocketAddr,
    clients: Vec<Client>,
    reqs: &[Req],
) -> Result<(Vec<Answer>, Duration), String> {
    let next = AtomicUsize::new(0);
    let started = Instant::now();
    let per_caller = std::thread::scope(|scope| {
        let callers: Vec<_> = clients
            .into_iter()
            .map(|mut client| {
                let next = &next;
                scope.spawn(move || -> std::io::Result<Vec<(usize, Answer)>> {
                    let mut answers = Vec::new();
                    loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        if i >= reqs.len() {
                            break;
                        }
                        let sent = Instant::now();
                        let (status, body) = match client.get(reqs[i].path, &reqs[i].query) {
                            Ok(answer) => answer,
                            // A broken connection fails this request
                            // (status 0) and the caller reconnects.
                            Err(_) => {
                                client = Client::connect(addr)?;
                                (0, String::new())
                            }
                        };
                        let latency = sent.elapsed();
                        let body = (i % ORACLE_EVERY == 0).then_some(body);
                        answers.push((
                            i,
                            Answer {
                                status,
                                latency,
                                body,
                            },
                        ));
                    }
                    Ok(answers)
                })
            })
            .collect();
        callers
            .into_iter()
            .map(|h| h.join().expect("caller thread panicked"))
            .collect::<std::io::Result<Vec<_>>>()
    })
    .map_err(|e| format!("request failed: {e}"))?;
    let wall = started.elapsed();
    let mut answers: Vec<(usize, Answer)> = per_caller.into_iter().flatten().collect();
    answers.sort_by_key(|(i, _)| *i);
    Ok((answers.into_iter().map(|(_, a)| a).collect(), wall))
}

/// Oracle: statuses must match each class, and every kept body must
/// equal `handlers::handle` under a cache-less config byte for byte.
/// Returns `(checked, mismatches)`.
pub fn check_answers(reqs: &[Req], answers: &[Answer]) -> (u64, u64) {
    let cfg = handler_config(None);
    let (mut checked, mut bad) = (0, 0);
    for (req, answer) in reqs.iter().zip(answers) {
        checked += 1;
        let mut ok = answer.status == req.class.expected_status();
        if let Some(body) = &answer.body {
            checked += 1;
            let want = handle(&Request::get(req.path, &req.query), &cfg);
            ok &= want.status == answer.status && want.body == *body;
        }
        bad += u64::from(!ok);
    }
    (checked, bad)
}

fn class_counts(reqs: &[Req]) -> [usize; 3] {
    let mut counts = [0; 3];
    for r in reqs {
        counts[r.class as usize] += 1;
    }
    counts
}

/// Read a counter or gauge out of the `/v1/metrics?format=json` body.
fn scraped(json: &str, name: &str) -> f64 {
    json.split(&format!("\"{name}\":"))
        .nth(1)
        .and_then(|rest| rest.split([',', '}']).next())
        .and_then(|v| v.parse().ok())
        .unwrap_or(0.0)
}

pub fn run(seed: u64, seconds: f64, trace: bool) -> Result<Outcome, String> {
    let jobs = nproc();
    let [hot, cold, invalid] = class_counts(&requests(seed, 0));
    note("requests_per_round", hot + cold + invalid);
    note("requests_hot_per_round", hot);
    note("requests_cold_per_round", cold);
    note("requests_invalid_per_round", invalid);
    note(
        "cold_points_per_block",
        cold_templates().iter().map(|t| t.points).sum::<usize>(),
    );
    note("connections", CONNECTIONS);
    note("server_jobs", jobs);
    if trace {
        return traced(&requests(seed, 0), jobs);
    }

    let mut out = Outcome::default();
    let (mut setups, mut rates, mut latencies) = (Vec::new(), Vec::new(), Vec::new());
    let mut per_class: [Vec<f64>; 3] = Default::default();
    let mut rejected = 0;
    // Peak RSS as of the end of the first round: the same work in every
    // process, whatever the host's speed lets the rest of the run do.
    let mut max_rss_kb = 0.0;
    let steal0 = steal_seconds();
    let phase = Instant::now();
    let mut round = 0;
    while rates.len() < MIN_ROUNDS || {
        let t = phase.elapsed().as_secs_f64();
        t + t / rates.len() as f64 <= seconds
    } {
        let reqs = requests(seed, round);
        round += 1;
        let (server, clients, setup, bad) = set_up(jobs)?;
        out.attempted += HOT_QUERIES.len() as u64;
        out.failed += bad;
        setups.push(setup.as_secs_f64());
        let (answers, wall) = drive(server.addr, clients, &reqs)?;
        rejected += server.stop()?.rejected;
        rates.push(answers.len() as f64 / wall.as_secs_f64());
        if rates.len() == 1 {
            max_rss_kb = peak_rss_kb();
        }
        let (checked, bad) = check_answers(&reqs, &answers);
        out.attempted += checked;
        out.failed += bad;
        for (r, a) in reqs.iter().zip(&answers) {
            let us = a.latency.as_secs_f64() * 1e6;
            latencies.push(us);
            per_class[r.class as usize].push(us);
        }
    }
    note("steal_s", steal_seconds() - steal0);
    note("rounds", rates.len());
    note("requests_per_s_by_round", format!("{rates:?}"));
    note("rejected", rejected);

    latencies.sort_by(f64::total_cmp);
    let (p50, _) = percentile(&latencies, 0.50);
    let (p99, beyond) = percentile(&latencies, 0.99);
    note("latency_samples", latencies.len());
    note("latency_samples_beyond_p99", beyond);
    out.check(beyond >= 10, || format!("only {beyond} samples beyond p99"));
    for (class, mut l) in ["hot", "cold", "invalid"].into_iter().zip(per_class) {
        l.sort_by(f64::total_cmp);
        note(&format!("latency_p50_us.{class}"), percentile(&l, 0.5).0);
    }

    // Percentiles are serve_mix's own, so they are printed for the
    // record, outside the metrics every workload shares.
    note("latency_p50_us", p50);
    note("latency_p99_us", p99);
    out.metric("setup_s", median(&setups), "s");
    out.metric("ops_per_s", median(&rates), "1/s");
    out.metric("max_rss_kb", max_rss_kb, "KiB");
    Ok(out)
}

/// The traced run: one socket pass (front-end latency, cache counters,
/// CPU use), then the same request list replayed straight into
/// `handlers::handle` with a fresh response cache, untimed and timed.
fn traced(reqs: &[Req], jobs: usize) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let (server, mut clients, _, bad) = set_up(jobs)?;
    let (_, before) = clients[0]
        .get("/v1/metrics", "format=json")
        .map_err(|e| format!("metrics: {e}"))?;
    let cpu0 = cpu_seconds();
    let (answers, wall) = drive(server.addr, clients, reqs)?;
    let cpu_per_wall = (cpu_seconds() - cpu0) / wall.as_secs_f64();
    let (_, after) = Client::connect(server.addr)
        .and_then(|mut c| c.get("/v1/metrics", "format=json"))
        .map_err(|e| format!("metrics: {e}"))?;
    let stats = server.stop()?;
    let caches = cache_stats();
    let socket_hot: Vec<f64> = reqs
        .iter()
        .zip(&answers)
        .filter(|(r, _)| r.class == Class::Hot)
        .map(|(_, a)| a.latency.as_secs_f64() * 1e6)
        .collect();
    out.attempted = answers.len() as u64;
    out.failed = bad
        + answers
            .iter()
            .zip(reqs)
            .filter(|(a, r)| a.status != r.class.expected_status())
            .count() as u64;

    let mut passes = Vec::new();
    for on in [false, true] {
        clear_memo_caches();
        let cfg = handler_config(Some(Arc::new(ResponseCache::detached())));
        for (path, params) in HOT_QUERIES {
            let _ = handle(
                &Request::get(path, &query(&mut Rng::new(0), &fixed(params))),
                &cfg,
            );
        }
        let mut spans = Spans::new(on);
        let mut per_class: [Vec<f64>; 3] = Default::default();
        let started = Instant::now();
        for r in reqs {
            let t = on.then(Instant::now);
            let response = handle(&Request::get(r.path, &r.query), &cfg);
            if let Some(t) = t {
                let d = t.elapsed();
                spans.add("serve.handler", d, 1);
                per_class[r.class as usize].push(d.as_secs_f64() * 1e6);
            }
            out.failed += u64::from(response.status != r.class.expected_status());
        }
        passes.push((started.elapsed().as_secs_f64(), spans, per_class));
    }
    let untraced_wall = passes[0].0;
    let (traced_wall, spans, per_class) = &mut passes[1];
    let p50 = |v: &mut Vec<f64>| {
        v.sort_by(f64::total_cmp);
        percentile(v, 0.5).0
    };
    let handler_hot = p50(&mut per_class[Class::Hot as usize]);
    let socket_hot = p50(&mut socket_hot.clone());
    let hits = scraped(&after, "serve.cache.hits") - scraped(&before, "serve.cache.hits");
    let misses = scraped(&after, "serve.cache.misses") - scraped(&before, "serve.cache.misses");

    note("socket_requests", answers.len());
    note("socket_wall_s", wall.as_secs_f64());
    note("socket_latency_p50_us.hot", socket_hot);
    note("replay_untraced_wall_s", untraced_wall);
    note("replay_traced_wall_s", *traced_wall);
    let busy = |class: Class| per_class[class as usize].iter().sum::<f64>() / 1e6;
    let (hot_s, cold_s, invalid_s) = (busy(Class::Hot), busy(Class::Cold), busy(Class::Invalid));
    out.share("serve.handler.hot", hot_s, *traced_wall);
    out.share("serve.handler.cold", cold_s, *traced_wall);
    out.share("serve.handler.invalid", invalid_s, *traced_wall);
    note("serve.handler_us.hot", handler_hot);
    note(
        "serve.handler_us.cold",
        p50(&mut per_class[Class::Cold as usize]),
    );
    note(
        "serve.handler_us.invalid",
        p50(&mut per_class[Class::Invalid as usize]),
    );
    note("serve.frontend_us", socket_hot - handler_hot);
    out.metric(
        "serve.frontend_share",
        (socket_hot - handler_hot) / socket_hot,
        "share",
    );
    out.metric(
        "serve.cache.hit_ratio",
        hits / (hits + misses).max(1.0),
        "share",
    );
    out.metric(
        "serve.cache.entries",
        scraped(&after, "serve.cache.entries"),
        "count",
    );
    note("serve.rejected", stats.rejected);
    crate::util::cache_metrics(&mut out, caches);
    out.trace_summary(
        cpu_per_wall,
        untraced_wall,
        *traced_wall,
        spans.covered() / *traced_wall,
    );
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seed_changes_inputs_but_never_counts() {
        let (a, b, c) = (requests(7, 0), requests(7, 0), requests(8, 0));
        assert_eq!(a, b);
        assert_ne!(a, c);
        assert_eq!(a.len(), c.len());
        assert_eq!(class_counts(&a), class_counts(&c));
        assert_eq!(
            class_counts(&a),
            [HOT, COLD, INVALID].map(|n| n * BLOCKS_PER_ROUND as usize)
        );
        // Every cold sweep answers exactly its template's point count,
        // whatever ratios the seed drew.
        let cfg = handler_config(None);
        let templates = cold_templates();
        for seed in [7, 8] {
            let mut sizes: Vec<usize> = block(seed, 0, &templates)
                .iter()
                .filter(|r| r.class == Class::Cold)
                .map(|r| {
                    let body = handle(&Request::get(r.path, &r.query), &cfg).body;
                    body.lines()
                        .filter(|l| l.starts_with(|c: char| c.is_ascii_digit()))
                        .count()
                })
                .collect();
            sizes.sort_unstable();
            let mut want: Vec<usize> = templates.iter().map(|t| t.points).collect();
            want.sort_unstable();
            assert_eq!(sizes, want);
            assert!(want.iter().all(|p| (100..=MAX_COLD_POINTS).contains(p)));
        }
    }

    #[test]
    fn oracle_fires_on_a_changed_body_or_status() {
        let reqs = block(3, 0, &cold_templates());
        let cfg = handler_config(Some(Arc::new(ResponseCache::detached())));
        let mut answers: Vec<Answer> = reqs
            .iter()
            .map(|r| {
                let resp = handle(&Request::get(r.path, &r.query), &cfg);
                Answer {
                    status: resp.status,
                    latency: Duration::ZERO,
                    body: Some(resp.body),
                }
            })
            .collect();
        assert_eq!(check_answers(&reqs, &answers), (2 * BLOCK as u64, 0));

        answers[0].body.as_mut().unwrap().push(' ');
        assert_eq!(check_answers(&reqs, &answers).1, 1);
        answers[0].body.as_mut().unwrap().pop();

        let invalid = reqs.iter().position(|r| r.class == Class::Invalid).unwrap();
        answers[invalid].status = 200;
        answers[invalid].body = None;
        assert_eq!(check_answers(&reqs, &answers).1, 1);
    }
}
