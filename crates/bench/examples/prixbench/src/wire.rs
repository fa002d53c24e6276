//! The wire workloads (`serve_http`, `ingest_serve`): an in-process
//! `Server::start` over the set-up database, driven through real TCP
//! connections: one keep-alive connection that queries, and on
//! `ingest_serve` a second that writes.

use std::net::SocketAddr;
use std::path::Path;
use std::time::{Duration, Instant};

use prix_core::PrixEngine;
use prix_datagen::SplitMix64;
use prix_server::{Server, ServerConfig, ServerHandle};

use crate::client::{json_numbers, percent_encode, post_bytes, Conn, Scrape};
use crate::clock::Clock;
use crate::data::{self, Class, FeedDoc, QuerySpec};
use crate::setup::{BATCH_DOCS, POOL_PAGES};
use crate::stats::{self, Latency};
use crate::trace::{Recorder, Span};

pub const SERVER_THREADS: usize = 2;
/// Requests of one pass of `serve_http`.
pub const SEQUENCE_LEN: usize = 2048;
/// The shape of `serve_http`'s traffic (which popularity rank each slot
/// of a pass asks for, where the batches fall, which position of its
/// class takes which rank) is the same on every seed; what `--seed`
/// changes is the collection and the queries sampled from it.
const SHAPE_SEED: u64 = 0x21BF;
/// Result-cache entries: half the 512-query pool, so that under Zipf
/// popularity the cache hits often but not always, and the misses fall
/// on the many unpopular queries, whose costs average out.
pub const RESULT_CACHE_ENTRIES: usize = 256;
pub const ZIPF_EXPONENT: f64 = 1.1;
/// One request in this many is a `POST /batch` of [`BATCH_LINES`].
pub const BATCH_EVERY: u64 = 50;
pub const BATCH_LINES: usize = 8;
/// Phase B's fixed arrival rate, requests per second: about half of
/// what the closed loop sustained on the commit that introduced the
/// benchmark, rounded and frozen.
pub const OPEN_LOOP_RPS: f64 = 900.0;
/// `ServerConfig::compact_after` for `ingest_serve`: every 32 batches
/// the delta is folded into a new segment tier.
pub const COMPACT_AFTER: usize = 32 * BATCH_DOCS;
/// `ingest_serve`'s writer posts batches on this schedule, whatever the
/// acks do: documents arrive when their sources produce them. A fixed
/// rate also fixes how many tiers the compactions have stacked up by
/// any moment of the run, which the readers' cost depends on. About a
/// third of what one connection can commit in the sandbox.
pub const INGEST_BATCHES_PER_S: f64 = 20.0;
/// On `ingest_serve` one read in this many counts a feed class, whose
/// answer changes with every publish.
pub const FEED_EVERY: u64 = 16;
/// Requests between two `/metrics` readings on the polling connection.
const METRICS_EVERY: u64 = 256;
/// `ServerConfig::match_limit`'s default, applied when a request names
/// no `limit`.
pub const SERVER_MATCH_LIMIT: usize = 1000;
/// In traced runs one request in this many is kept for the in-process
/// replay. Odd, so that pass after pass it lands on other slots.
const SAMPLE_EVERY: u64 = 7;
const SAMPLE_CAP: usize = 1500;

pub fn start_server(db: &Path, ingest: bool) -> Result<ServerHandle, String> {
    let engine = PrixEngine::reopen(db, POOL_PAGES).map_err(|e| format!("reopen: {e}"))?;
    Server::start(
        engine,
        ServerConfig {
            addr: "127.0.0.1:0".to_string(),
            threads: SERVER_THREADS,
            // One thread per batch: the stage clocks of a batch then add
            // up to no more than its request time.
            batch_threads: 1,
            ingest,
            compact_after: ingest.then_some(COMPACT_AFTER),
            result_cache_entries: RESULT_CACHE_ENTRIES,
            // The connections live for the whole run.
            idle_timeout: Duration::from_secs(60),
            max_requests_per_conn: usize::MAX,
            ..Default::default()
        },
    )
    .map_err(|e| format!("start server: {e}"))
}

/// What a request asked, so the reply can be checked.
#[derive(Debug, Clone)]
pub enum Sent {
    Query(usize),
    Batch(Vec<usize>),
    Feed(usize),
}

/// A request kept for the in-process replay.
pub struct Sample {
    pub request: u64,
    pub raw: Vec<u8>,
    pub sent: Sent,
}

/// One request of the connection's sequence.
pub struct Planned {
    pub raw: Vec<u8>,
    pub sent: Sent,
}

/// The query mix: ready-made request bytes per pool entry, the count a
/// correct reply carries, and the sequence of requests the connection
/// sends, pass after pass.
pub struct Mix {
    gets: Vec<Vec<u8>>,
    expect: Vec<u64>,
    pub pool: Vec<QuerySpec>,
    /// Every pass sends the same requests in the same order, so each
    /// slot's timings differ only by what else the machine was doing
    /// (see `stats::best_per_slot`).
    pub sequence: Vec<Planned>,
}

impl Mix {
    /// The mix of `serve_http` (`read_only`) or of `ingest_serve`'s
    /// reader, which differ in two ways. Read-only, the rare-ancestor
    /// twigs go out with `limit=0` (only an unlimited query lets the
    /// planner leave PRIX for TwigStackXB), and a pass is
    /// [`SEQUENCE_LEN`] draws of a popularity rank under Zipf, one in
    /// [`BATCH_EVERY`] a batch. Beside a writer neither holds: every
    /// publish would rebuild the alternative engines' substrates, and
    /// with every publish emptying the result cache a Zipf head is
    /// re-evaluated each epoch, so the reader's cost would hinge on what
    /// a handful of queries happen to cost under this seed. There a pass
    /// is the pool, once each, in pool order.
    pub fn new(pool: &[QuerySpec], read_only: bool) -> Mix {
        let mut gets = Vec::with_capacity(pool.len());
        let mut expect = Vec::with_capacity(pool.len());
        for spec in pool {
            let limit = match spec.limit {
                Some(l) => Some(l),
                None if read_only && spec.class == Class::Rare => Some(0),
                None => None,
            };
            let mut target = format!("/query?xp={}", percent_encode(&spec.xpath));
            if let Some(l) = limit {
                target.push_str(&format!("&limit={l}"));
            }
            gets.push(format!("GET {target} HTTP/1.1\r\nHost: prix\r\n\r\n").into_bytes());
            expect.push(match limit {
                Some(0) => spec.total,
                Some(l) => spec.expected(Some(l)),
                None => spec.expected(Some(SERVER_MATCH_LIMIT)),
            });
        }
        let query = |i: usize| Planned {
            raw: gets[i].clone(),
            sent: Sent::Query(i),
        };
        let sequence = if read_only {
            let mut rng = SplitMix64::new(SHAPE_SEED);
            let order = popularity_order(pool);
            let mut cdf = Vec::with_capacity(pool.len());
            let mut acc = 0.0;
            for rank in 1..=pool.len() {
                acc += (rank as f64).powf(-ZIPF_EXPONENT);
                cdf.push(acc);
            }
            // A batch's lines are drawn uniformly from the selective
            // classes: eight such draws cost about the same whichever
            // queries a seed made popular, and a 10-50 ms deep, rare or
            // wide line would turn the batch into a stall.
            let batchable: Vec<usize> = (0..pool.len())
                .filter(|&i| !matches!(pool[i].class, Class::Deep | Class::Rare | Class::Wide))
                .collect();
            (0..SEQUENCE_LEN as u64)
                .map(|n| {
                    if n % BATCH_EVERY == BATCH_EVERY - 1 {
                        let lines: Vec<usize> =
                            (0..BATCH_LINES).map(|_| *rng.pick(&batchable)).collect();
                        let body: String = lines
                            .iter()
                            .map(|&i| format!("{}\n", pool[i].xpath))
                            .collect();
                        Planned {
                            raw: post_bytes("/batch", &body),
                            sent: Sent::Batch(lines),
                        }
                    } else {
                        let u = (rng.next_u64() >> 11) as f64 / (1u64 << 53) as f64 * acc;
                        let rank = cdf.partition_point(|&c| c < u);
                        query(order[rank.min(order.len() - 1)])
                    }
                })
                .collect()
        } else {
            (0..pool.len()).map(query).collect()
        };
        Mix {
            gets,
            expect,
            pool: pool.to_vec(),
            sequence,
        }
    }

    /// The ready-made `GET /query` of each pool entry.
    pub fn request_bytes(&self) -> &[Vec<u8>] {
        &self.gets
    }
}

/// Popularity rank → pool index: each class's queries in a fixed
/// pseudo-random order of their positions within the class, merged so
/// that every prefix of the ranking holds the classes in the pool's own
/// proportions. The costly queries open their classes on every seed, so
/// they take the same ranks on every seed, and how costly the popular
/// head and the misses are does not hinge on a draw.
fn popularity_order(pool: &[QuerySpec]) -> Vec<usize> {
    let mut by_class: Vec<Vec<usize>> = vec![Vec::new(); Class::ALL.len()];
    for (i, spec) in pool.iter().enumerate() {
        by_class[spec.class.index()].push(i);
    }
    for (class, members) in by_class.iter_mut().enumerate() {
        let mut keyed: Vec<(u64, usize)> = members
            .iter()
            .enumerate()
            .map(|(k, &i)| {
                let at = (class as u64) << 32 | k as u64;
                (SplitMix64::new(SHAPE_SEED ^ at).next_u64(), i)
            })
            .collect();
        keyed.sort_unstable();
        *members = keyed.into_iter().map(|(_, i)| i).collect();
    }
    let share: Vec<f64> = by_class
        .iter()
        .map(|m| m.len() as f64 / pool.len() as f64)
        .collect();
    let mut taken = vec![0usize; by_class.len()];
    let mut order = Vec::with_capacity(pool.len());
    for rank in 1..=pool.len() {
        // The class furthest behind its share of the first `rank`.
        let class = (0..by_class.len())
            .filter(|&c| taken[c] < by_class[c].len())
            .max_by(|&a, &b| {
                let behind = |c: usize| share[c] * rank as f64 - taken[c] as f64;
                behind(a)
                    .partial_cmp(&behind(b))
                    .expect("shares are finite")
            })
            .expect("some class has queries left");
        order.push(by_class[class][taken[class]]);
        taken[class] += 1;
    }
    order
}

/// Counters of the current buffer pool, which a compaction replaces
/// (and so resets). Accumulates across resets.
#[derive(Default, Clone, Copy)]
struct Resettable {
    last: Option<f64>,
    total: f64,
}

impl Resettable {
    /// The first reading is the baseline; a reading below the previous
    /// one means a fresh pool that has counted `now` since.
    fn see(&mut self, now: f64) {
        if let Some(last) = self.last {
            self.total += if now >= last { now - last } else { now };
        }
        self.last = Some(now);
    }
}

/// One phase's samples, in arrival order.
#[derive(Default)]
pub struct Phase {
    /// Latency of every request of the sequence: from the send in a
    /// closed loop, from the *due* time in the open loop. (Feed-class
    /// reads are no slot of the sequence and are left out.)
    pub lat_us: Vec<f64>,
    /// Open loop only: how long after the due time the generator sent.
    pub late_us: Vec<f64>,
    /// When each reply arrived.
    done_at: Vec<Instant>,
    /// Requests sent, feed-class reads included.
    pub requests: u64,
}

impl Phase {
    /// Scales every latency and gap to the reference clock.
    fn scale(&mut self, clock: &Clock) {
        let factors: Vec<f64> = self.done_at.iter().map(|at| clock.factor(*at)).collect();
        for (lat, f) in self.lat_us.iter_mut().zip(&factors) {
            *lat *= f;
        }
        for (late, f) in self.late_us.iter_mut().zip(&factors) {
            *late *= f;
        }
    }

    /// The latency figures of the phase's whole passes over a sequence
    /// of `len`.
    pub fn latency(&self, len: usize) -> Latency {
        stats::latency(&stats::best_per_slot(&self.lat_us, len))
    }
}

/// What the client counted over all its phases.
#[derive(Default)]
struct ClientStats {
    requests: u64,
    failed: u64,
    wrong: u64,
    /// `(feed class, epoch, count)` replies, checked once the writer's
    /// log is complete.
    feed_seen: Vec<(usize, u64, u64)>,
    samples: Vec<Sample>,
    queue_depth_max: f64,
    physical_reads: Resettable,
    logical_reads: Resettable,
}

/// The one client that queries: a keep-alive connection and the thread
/// that drives it. A second caller would be timing the scheduler
/// (`nproc` is 2, and the run keeps to one CPU: `sys::pin_to_one_cpu`).
struct Client<'a> {
    conn: Conn,
    mix: &'a Mix,
    stats: ClientStats,
    phase: Phase,
    rec: Option<Recorder>,
    /// Draws the class of the feed-class reads `ingest_serve`'s reader
    /// interleaves.
    feed: Option<SplitMix64>,
    /// Read `/metrics` every [`METRICS_EVERY`] requests.
    poll: bool,
}

impl<'a> Client<'a> {
    fn connect(addr: SocketAddr, mix: &'a Mix) -> Result<Client<'a>, String> {
        Ok(Client {
            conn: Conn::connect(addr)?,
            mix,
            stats: ClientStats::default(),
            phase: Phase::default(),
            rec: None,
            feed: None,
            poll: false,
        })
    }

    /// Sends one request, waits for the reply, checks it, and records
    /// the latency measured from `origin`.
    fn exchange(&mut self, raw: &[u8], sent: &Sent, origin: Instant) -> Result<(), String> {
        let request = self.stats.requests;
        let span = self
            .rec
            .as_mut()
            .map(|r| r.begin("wire.request", None, request));
        let (status, body) = self.conn.roundtrip(raw)?;
        let done = Instant::now();
        if let (Some(r), Some(id)) = (self.rec.as_mut(), span) {
            r.end(id);
        }
        if !matches!(sent, Sent::Feed(_)) {
            self.phase.lat_us.push((done - origin).as_secs_f64() * 1e6);
            self.phase.done_at.push(done);
        }
        self.phase.requests += 1;
        self.stats.requests += 1;
        if status != 200 {
            self.stats.failed += 1;
            return Ok(());
        }
        let counts = json_numbers(&body, "count");
        let right = match sent {
            Sent::Query(i) => counts.first() == Some(&self.mix.expect[*i]),
            // The first `count` of a batch reply is its length.
            Sent::Batch(lines) => {
                counts.len() == lines.len() + 1
                    && lines
                        .iter()
                        .zip(&counts[1..])
                        .all(|(&i, &c)| c == self.mix.pool[i].total)
            }
            Sent::Feed(class) => match (json_numbers(&body, "epoch").first(), counts.first()) {
                (Some(&epoch), Some(&count)) => {
                    self.stats.feed_seen.push((*class, epoch, count));
                    true
                }
                _ => false,
            },
        };
        if !right {
            self.stats.wrong += 1;
        }
        if self.rec.is_some()
            && self.stats.requests % SAMPLE_EVERY == 0
            && self.stats.samples.len() < SAMPLE_CAP
            && !matches!(sent, Sent::Feed(_))
        {
            self.stats.samples.push(Sample {
                request,
                raw: raw.to_vec(),
                sent: sent.clone(),
            });
        }
        if self.poll && self.stats.requests % METRICS_EVERY == 0 {
            self.read_metrics()?;
        }
        Ok(())
    }

    /// Counts feed class `class`, whose answer moves with every publish.
    fn feed_read(&mut self, class: usize) -> Result<(), String> {
        // A limit no class ever reaches: the count stays exact, and a
        // limited query is never routed to an alternative engine, whose
        // substrates every publish would rebuild.
        let target = format!(
            "/query?xp={}&limit=1000000",
            percent_encode(&data::feed_class_query(class))
        );
        let raw = format!("GET {target} HTTP/1.1\r\nHost: prix\r\n\r\n").into_bytes();
        self.exchange(&raw, &Sent::Feed(class), Instant::now())
    }

    fn read_metrics(&mut self) -> Result<Scrape, String> {
        let m = Scrape::fetch(&mut self.conn)?;
        self.stats
            .physical_reads
            .see(m.get("prix_bufferpool_physical_reads_total"));
        self.stats
            .logical_reads
            .see(m.get("prix_bufferpool_logical_reads_total"));
        self.stats.queue_depth_max = self
            .stats
            .queue_depth_max
            .max(m.get("prix_http_queue_depth"));
        Ok(m)
    }

    /// Callers of a query API wait for the reply before asking again.
    /// Passes over the sequence until `deadline`: the pass under way is
    /// finished if `whole_passes`, cut short otherwise (what a slot
    /// costs then belongs to no pass and is not counted).
    fn closed_loop(&mut self, deadline: Instant, whole_passes: bool) -> Result<Phase, String> {
        let mix = self.mix;
        'passes: loop {
            for planned in &mix.sequence {
                if !whole_passes && Instant::now() >= deadline {
                    break 'passes;
                }
                if self.stats.requests % FEED_EVERY == FEED_EVERY - 1 {
                    if let Some(rng) = &mut self.feed {
                        let class = rng.below(data::FEED_CLASSES as u64) as usize;
                        self.feed_read(class)?;
                    }
                }
                self.exchange(&planned.raw, &planned.sent, Instant::now())?;
            }
            if Instant::now() >= deadline {
                break;
            }
        }
        Ok(std::mem::take(&mut self.phase))
    }

    /// Requests are due on a fixed schedule whatever the server does;
    /// latency counts from the due time, so a stall is charged to every
    /// request it delays.
    fn open_loop(&mut self, seconds: f64, rate: f64) -> Result<Phase, String> {
        let mix = self.mix;
        let start = Instant::now();
        let interval = 1.0 / rate;
        for (k, planned) in mix.sequence.iter().cycle().enumerate() {
            let offset = k as f64 * interval;
            if offset >= seconds {
                break;
            }
            let due = start + Duration::from_secs_f64(offset);
            loop {
                let now = Instant::now();
                if now >= due {
                    break;
                }
                // Sleeping leaves the cores to the server's workers;
                // the overshoot is reported as generator lateness.
                std::thread::sleep(due - now);
            }
            self.phase
                .late_us
                .push((Instant::now() - due).as_secs_f64() * 1e6);
            self.exchange(&planned.raw, &planned.sent, due)?;
        }
        Ok(std::mem::take(&mut self.phase))
    }
}

/// Everything a wire run measured on the client side, plus the first
/// and last `/metrics` reading.
#[derive(Default)]
pub struct WireRun {
    /// Closed-loop phase without tracing (traced runs only).
    pub untraced: Option<Phase>,
    pub closed: Phase,
    /// `serve_http`'s phase B (traced runs only).
    pub open: Option<Phase>,
    pub first: Scrape,
    pub last: Scrape,
    pub requests: u64,
    pub failed: u64,
    pub wrong: u64,
    pub pool_physical_reads: f64,
    pub pool_logical_reads: f64,
    pub queue_depth_max: f64,
    pub feed_seen: Vec<(usize, u64, u64)>,
    pub samples: Vec<Sample>,
    pub spans: Vec<Span>,
    /// Median of the clock sampler's factors over the run.
    pub clock_factor: f64,
}

impl WireRun {
    /// Requests between the first and the last `/metrics` reading.
    pub fn measured_requests(&self) -> u64 {
        self.closed.requests
            + self.open.as_ref().map_or(0, |p| p.requests)
            + self.untraced.as_ref().map_or(0, |p| p.requests)
    }

    /// Takes over what the client counted, and scales the phases'
    /// samples to the reference clock.
    fn finish(&mut self, mut client: Client<'_>, clock: &Clock) {
        for phase in [
            self.untraced.as_mut(),
            Some(&mut self.closed),
            self.open.as_mut(),
        ]
        .into_iter()
        .flatten()
        {
            phase.scale(clock);
        }
        self.clock_factor = clock.median_factor();
        let stats = client.stats;
        self.requests = stats.requests;
        self.failed = stats.failed;
        self.wrong = stats.wrong;
        self.pool_physical_reads = stats.physical_reads.total;
        self.pool_logical_reads = stats.logical_reads.total;
        self.queue_depth_max = stats.queue_depth_max;
        self.feed_seen = stats.feed_seen;
        self.samples = stats.samples;
        self.spans = client.rec.take().map_or_else(Vec::new, |r| r.spans);
    }
}

/// `serve_http`: read-only, one keep-alive connection. Every query is
/// sent once and the sequence once, untimed: that checks every answer,
/// builds the alternative engines' substrates and brings the caches to
/// the state every later pass starts from. Then a closed loop of whole
/// passes. A traced run spends a quarter of its time on that loop
/// untraced, to price the tracing, a quarter on it traced, and half on
/// phase B, an open loop at [`OPEN_LOOP_RPS`].
pub fn serve_http(
    addr: SocketAddr,
    mix: &Mix,
    seconds: f64,
    traced: bool,
    clock: &Clock,
) -> Result<WireRun, String> {
    let mut client = Client::connect(addr, mix)?;
    // The rare-ancestor twigs go first: they make the server build the
    // substrates before anything else waits behind that.
    let rare = (0..mix.pool.len()).filter(|&i| mix.pool[i].class == Class::Rare);
    for i in rare.chain(0..mix.pool.len()) {
        client.exchange(&mix.gets[i], &Sent::Query(i), Instant::now())?;
    }
    client.closed_loop(Instant::now(), true)?;

    let mut run = WireRun {
        first: client.read_metrics()?,
        ..WireRun::default()
    };
    client.poll = true;
    let after = |s: f64| Instant::now() + Duration::from_secs_f64(s);
    if traced {
        run.untraced = Some(client.closed_loop(after(seconds / 4.0), true)?);
        client.rec = Some(Recorder::new());
        run.closed = client.closed_loop(after(seconds / 4.0), true)?;
        run.open = Some(client.open_loop(seconds / 2.0, OPEN_LOOP_RPS)?);
    } else {
        run.closed = client.closed_loop(after(seconds), true)?;
    }
    run.last = client.read_metrics()?;
    run.finish(client, clock);
    Ok(run)
}

/// One acknowledged ingest batch.
pub struct Ack {
    pub epoch: u64,
    pub docs: Vec<FeedDoc>,
}

/// What the writer connection of `ingest_serve` measured.
#[derive(Default)]
pub struct WriterRun {
    pub ack_ms: Vec<f64>,
    pub acks: Vec<Ack>,
    pub failed: u64,
    pub bytes: u64,
    pub elapsed_s: f64,
}

/// `ingest_serve`: the writer posts fixed-size `POST /documents`
/// batches at [`INGEST_BATCHES_PER_S`] (each ack is one WAL group commit
/// and one epoch publish); the reader runs passes over the pool in a
/// closed loop, plus feed-class reads whose answer moves with every
/// publish. The reader stops with the writer: a pass finished after the
/// last batch would be timed on a server that no longer ingests.
pub fn ingest_serve(
    addr: SocketAddr,
    mix: &Mix,
    seed: u64,
    seconds: f64,
    traced: bool,
    clock: &Clock,
) -> Result<(WireRun, WriterRun), String> {
    let mut reader = Client::connect(addr, mix)?;
    reader.feed = Some(SplitMix64::new(seed ^ 0xC11E_0000));
    reader.poll = true;
    let mut run = WireRun {
        first: reader.read_metrics()?,
        ..WireRun::default()
    };
    let mut writer_conn = Conn::connect(addr)?;
    let mut writer = WriterRun::default();
    let mut rng = SplitMix64::new(seed ^ 0x001A_6E57);

    let start = Instant::now();
    let deadline = start + Duration::from_secs_f64(seconds);
    let (untraced, closed) = std::thread::scope(|s| {
        let reader = &mut reader;
        let reads = s.spawn(move || -> Result<(Option<Phase>, Phase), String> {
            // A traced run prices the tracing on its first half.
            let untraced = if traced {
                let half = start + Duration::from_secs_f64(seconds / 2.0);
                let phase = reader.closed_loop(half, false)?;
                reader.rec = Some(Recorder::new());
                Some(phase)
            } else {
                None
            };
            Ok((untraced, reader.closed_loop(deadline, false)?))
        });
        let written = (|| -> Result<(), String> {
            for k in 0.. {
                let offset = k as f64 / INGEST_BATCHES_PER_S;
                if offset >= seconds {
                    break;
                }
                let due = start + Duration::from_secs_f64(offset);
                if let Some(wait) = due.checked_duration_since(Instant::now()) {
                    std::thread::sleep(wait);
                }
                let docs: Vec<FeedDoc> =
                    (0..BATCH_DOCS).map(|_| data::feed_doc(&mut rng)).collect();
                let mut body = String::from("<batch>");
                for d in &docs {
                    body.push_str(&d.xml);
                }
                body.push_str("</batch>");
                let raw = post_bytes("/documents?split=1", &body);
                let (status, reply) = writer_conn.roundtrip(&raw)?;
                // From the due time: a late commit holds up the next.
                writer.ack_ms.push(due.elapsed().as_secs_f64() * 1e3);
                let accepted = json_numbers(&reply, "accepted").first().copied();
                match (status, json_numbers(&reply, "epoch").first()) {
                    (200, Some(&epoch)) if accepted == Some(BATCH_DOCS as u64) => {
                        writer.bytes += docs.iter().map(|d| d.xml.len() as u64).sum::<u64>();
                        writer.acks.push(Ack { epoch, docs });
                    }
                    _ => writer.failed += 1,
                }
            }
            Ok(())
        })();
        writer.elapsed_s = start.elapsed().as_secs_f64();
        let read = reads
            .join()
            .map_err(|_| "reader thread panicked".to_string())?;
        written.and(read)
    })?;
    run.untraced = untraced;
    run.closed = closed;
    run.last = reader.read_metrics()?;
    run.finish(reader, clock);
    Ok((run, writer))
}

/// Checks every feed-class read against the writer's log: the count a
/// reply reported at epoch `E` must be the class's documents in the
/// set-up tail plus those of every batch acknowledged at or before `E`.
pub fn wrong_feed_reads(tail: &[FeedDoc], acks: &[Ack], seen: &[(usize, u64, u64)]) -> u64 {
    let mut base = vec![0u64; data::FEED_CLASSES];
    for d in tail {
        base[d.class] += 1;
    }
    seen.iter()
        .filter(|&&(class, epoch, count)| {
            let added: u64 = acks
                .iter()
                .take_while(|a| a.epoch <= epoch)
                .map(|a| a.docs.iter().filter(|d| d.class == class).count() as u64)
                .sum();
            count != base[class] + added
        })
        .count() as u64
}
