//! Bounded-memory execution of extreme horizons: segmented schedules,
//! settled-prefix eviction and a crash-safe WAL of compaction points.
//!
//! The streaming engine already folds metrics and the divergence index
//! online, but three pieces of state still grow with the horizon: the
//! block arena (every block ever minted), the divergence fold's
//! per-anchor array (`O(slots)` eagerly — ≈ 0.8 GB at 10⁸ slots) and
//! the leader schedule itself. [`run_horizon`] removes all three:
//!
//! * the schedule is sampled **per segment** through
//!   [`ColumnarSchedule::resample_segment`] from one long-lived RNG —
//!   draw-for-draw identical to sampling the whole horizon at once,
//!   because every slot consumes a fixed number of draws. Sampling reads
//!   nothing the kernel writes, so it runs **one segment ahead** on a
//!   helper thread that owns the RNG: while the kernel executes segment
//!   `i`, the helper draws segment `i + 1` into the second of two
//!   schedule buffers that circulate between the threads. The draw order
//!   is the sequential one, so the pipeline changes no result;
//! * at each segment boundary the driver looks for a **fully settled
//!   point** — every honest tip unanimous, the delivery ring idle, the
//!   strategy holding no other live block reference
//!   ([`AdversaryStrategy::compact_to_root`]) — and compacts: the
//!   unanimous tip becomes the arena's new root (id 0, absolute slot and
//!   height), the fold drains every anchor at or below the boundary into
//!   per-`k` aggregates ([`DivergenceFold::advance_base`]), and the
//!   evicted chain prefix is folded into running block counters. Live
//!   state after compaction is a single block plus empty scratch — the
//!   execution is indistinguishable above the root, so the final report
//!   is **identical** to an unsegmented run's (pinned by
//!   `tests/horizon_execution.rs`);
//! * every compaction appends one CRC-framed record to a **write-ahead
//!   log**: the root's coordinates, the metric and fold accumulators,
//!   and the strategy's scalar state. A later [`run_horizon`] with the
//!   same parameters resumes from the last intact record — replaying
//!   only the schedule sampling of the completed prefix to re-derive the
//!   RNG position — and produces the same report as the uninterrupted
//!   run. A torn tail (partial last record after a crash) is detected by
//!   the CRC frame and discarded.
//!
//! Compaction is opportunistic, not guaranteed: a strategy that holds
//! arbitrary block references (e.g. the balance attack's branch map)
//! vetoes it and the run degrades to unbounded live state, which
//! [`HorizonOptions::max_live_blocks`] turns into a hard error instead
//! of an OOM kill. The private-withholding and honest strategies — the
//! interesting 10⁸-slot settlement scenarios — compact at almost every
//! boundary under realistic activity levels.
//!
//! [`AdversaryStrategy::compact_to_root`]:
//! multihonest_sim::AdversaryStrategy::compact_to_root
//! [`DivergenceFold::advance_base`]:
//! multihonest_sim::DivergenceFold::advance_base

use std::fs::{File, OpenOptions};
use std::io::{self, Read as _, Write as _};
use std::path::{Path, PathBuf};
use std::sync::mpsc;

use rand::rngs::StdRng;
use rand::SeedableRng;

use multihonest_obs::{heartbeat_line, Heartbeat, Recorder};
use multihonest_sim::consistency::DivergenceFold;
use multihonest_sim::fault::FaultPlan;
use multihonest_sim::metrics::{Metrics, MetricsAccumulator};
use multihonest_sim::{BlockId, SimConfig};

use crate::engine::{
    run_slots, EngineCore, ExecutionArena, Inline, SlotFold, ENGINE_KERNEL_VERSION,
};
use crate::mix;
use crate::schedule::{ColumnarSchedule, LeaderProbs};
use crate::store::ADVERSARY;

/// Tuning and safety knobs of one [`run_horizon`] call.
#[derive(Debug, Clone)]
pub struct HorizonOptions {
    /// Slots per schedule segment: the unit the sampling thread hands to
    /// the kernel, and the spacing of compaction attempts. Smaller
    /// segments compact — and checkpoint — more often at one buffer
    /// handoff each. The second buffer costs 5 bytes per segment slot
    /// plus 4 per honest leader (about 6 bytes per slot at f = 0.25).
    /// Must be ≥ 1.
    pub segment_slots: usize,
    /// Settlement parameters to aggregate violation counts for.
    pub ks: Vec<usize>,
    /// Hard bound on live arena blocks; exceeded ⇒ the run fails with an
    /// error instead of growing without limit (0 = unbounded).
    pub max_live_blocks: usize,
    /// Write-ahead log to append compaction records to (and resume
    /// from, when it already exists and matches the parameters).
    pub wal: Option<PathBuf>,
}

impl Default for HorizonOptions {
    fn default() -> HorizonOptions {
        HorizonOptions {
            segment_slots: 1 << 20,
            ks: vec![16, 32, 64, 128],
            max_live_blocks: 0,
            wal: None,
        }
    }
}

/// The output of a horizon run: headline metrics plus the per-`k`
/// settlement aggregates that replace the (never materialised)
/// divergence index.
#[derive(Debug, Clone, PartialEq)]
pub struct HorizonReport {
    /// End-of-run metrics, identical to an unsegmented streaming run's.
    pub metrics: Metrics,
    /// Per entry of [`HorizonOptions::ks`]: the number of anchors `s`
    /// with a `(s, k)`-settlement violation.
    pub violating_anchors: Vec<u64>,
    /// Per entry of [`HorizonOptions::ks`]: the smallest violating
    /// anchor, if any.
    pub first_violation: Vec<Option<usize>>,
    /// Compactions performed (resumed ones included).
    pub compactions: u64,
    /// Peak live arena blocks over the whole run (resumed prefix
    /// included) — what [`HorizonOptions::max_live_blocks`] bounds.
    pub peak_live_blocks: usize,
    /// The compaction slot this run resumed from, if it did.
    pub resumed_at: Option<usize>,
}

/// Running per-`k` settlement aggregates, fed by fold drains.
struct Aggregates {
    ks: Vec<usize>,
    counts: Vec<u64>,
    first: Vec<Option<usize>>,
    max_lag: Option<usize>,
}

impl Aggregates {
    fn new(ks: &[usize]) -> Aggregates {
        Aggregates {
            ks: ks.to_vec(),
            counts: vec![0; ks.len()],
            first: vec![None; ks.len()],
            max_lag: None,
        }
    }

    /// Folds one drained anchor: `latest ≥ s + k` is exactly
    /// `DivergenceIndex::violates(s, k)` for an anchor with a diverging
    /// observation.
    fn drain(&mut self, s: usize, latest: usize) {
        debug_assert!(latest >= s, "observation precedes its anchor");
        let lag = latest - s;
        self.max_lag = Some(self.max_lag.map_or(lag, |m| m.max(lag)));
        for (i, &k) in self.ks.iter().enumerate() {
            if lag >= k {
                self.counts[i] += 1;
                if self.first[i].is_none_or(|f| s < f) {
                    self.first[i] = Some(s);
                }
            }
        }
    }
}

/// One WAL record: the complete resume state at a compaction point.
struct WalRecord {
    slot: u64,
    root_slot: u64,
    root_height: u64,
    root_issuer: u64,
    /// Always `root_issuer != ADVERSARY`; read only as a cross-check.
    root_honest: u64,
    acc_slots: u64,
    acc_max_div: u64,
    acc_rollbacks: u64,
    active_slots: u64,
    prefix_blocks: u64,
    prefix_honest: u64,
    compactions: u64,
    peak_live: u64,
    max_lag: u64, // u64::MAX = none
    counts: Vec<u64>,
    first: Vec<u64>, // u64::MAX = none
    strategy: Vec<u64>,
}

impl WalRecord {
    fn to_words(&self) -> Vec<u64> {
        let mut w = vec![
            self.slot,
            self.root_slot,
            self.root_height,
            self.root_issuer,
            self.root_honest,
            self.acc_slots,
            self.acc_max_div,
            self.acc_rollbacks,
            self.active_slots,
            self.prefix_blocks,
            self.prefix_honest,
            self.compactions,
            self.peak_live,
            self.max_lag,
            self.counts.len() as u64,
        ];
        w.extend_from_slice(&self.counts);
        w.extend_from_slice(&self.first);
        w.push(self.strategy.len() as u64);
        w.extend_from_slice(&self.strategy);
        w
    }

    fn from_words(w: &[u64]) -> Option<WalRecord> {
        if w.len() < 15 {
            return None;
        }
        let nk = w[14] as usize;
        if w.len() < 15 + 2 * nk + 1 {
            return None;
        }
        let ns = w[15 + 2 * nk] as usize;
        if w.len() != 15 + 2 * nk + 1 + ns {
            return None;
        }
        Some(WalRecord {
            slot: w[0],
            root_slot: w[1],
            root_height: w[2],
            root_issuer: w[3],
            root_honest: w[4],
            acc_slots: w[5],
            acc_max_div: w[6],
            acc_rollbacks: w[7],
            active_slots: w[8],
            prefix_blocks: w[9],
            prefix_honest: w[10],
            compactions: w[11],
            peak_live: w[12],
            max_lag: w[13],
            counts: w[15..15 + nk].to_vec(),
            first: w[15 + nk..15 + 2 * nk].to_vec(),
            strategy: w[15 + 2 * nk + 1..].to_vec(),
        })
    }

    /// Rejects a record whose root or strategy fields cannot describe a
    /// compaction point, naming the first bad field; `strategy_words` is
    /// the length of a fresh strategy's checkpoint state.
    fn check(&self, strategy_words: usize) -> io::Result<()> {
        let honest = self.root_issuer != u64::from(ADVERSARY);
        let checks = [
            (u32::try_from(self.root_issuer).is_ok(), "root_issuer"),
            (self.root_honest == u64::from(honest), "root_honest"),
            (self.root_slot <= self.slot, "root_slot"),
            (self.root_height <= self.root_slot, "root_height"),
            (self.strategy.len() == strategy_words, "strategy state"),
        ];
        match checks.iter().find(|(ok, _)| !ok) {
            Some((_, field)) => Err(io::Error::new(
                io::ErrorKind::InvalidData,
                format!("WAL record has an inconsistent {field}"),
            )),
            None => Ok(()),
        }
    }
}

const WAL_MAGIC: &[u8; 8] = b"MHWAL\x01\0\0";

/// CRC-32 (IEEE), bitwise — records are tiny and rare, so no table.
fn crc32(bytes: &[u8]) -> u32 {
    let mut crc = 0xFFFF_FFFFu32;
    for &b in bytes {
        crc ^= b as u32;
        for _ in 0..8 {
            let mask = (crc & 1).wrapping_neg();
            crc = (crc >> 1) ^ (0xEDB8_8320 & mask);
        }
    }
    !crc
}

fn words_to_bytes(words: &[u64]) -> Vec<u8> {
    let mut out = Vec::with_capacity(words.len() * 8);
    for w in words {
        out.extend_from_slice(&w.to_le_bytes());
    }
    out
}

fn bytes_to_words(bytes: &[u8]) -> Option<Vec<u64>> {
    if !bytes.len().is_multiple_of(8) {
        return None;
    }
    Some(
        bytes
            .chunks_exact(8)
            .map(|c| u64::from_le_bytes(c.try_into().expect("chunk of 8")))
            .collect(),
    )
}

/// A parameter fingerprint binding a WAL to one `(config, seed, options,
/// kernel)` tuple — a resume under different parameters is an error, not
/// a silent divergence. Folds the engine kernel version in so a WAL
/// written by an observably different kernel is rejected too.
fn params_hash(config: &SimConfig, seed: u64, opts: &HorizonOptions) -> u64 {
    let mut h = mix(0, u64::from(ENGINE_KERNEL_VERSION));
    for b in format!("{config:?}").bytes() {
        h = mix(h, u64::from(b));
    }
    h = mix(h, seed);
    h = mix(h, opts.segment_slots as u64);
    for &k in &opts.ks {
        h = mix(h, k as u64);
    }
    h
}

/// Parses a WAL file: validates magic and parameter hash, walks the
/// CRC-framed records, and returns the last intact one plus the byte
/// offset right after it (where a torn tail, if any, begins).
fn load_wal(path: &Path, hash: u64) -> io::Result<Option<(WalRecord, u64)>> {
    let mut bytes = Vec::new();
    match File::open(path) {
        Ok(mut f) => {
            f.read_to_end(&mut bytes)?;
        }
        Err(e) if e.kind() == io::ErrorKind::NotFound => return Ok(None),
        Err(e) => return Err(e),
    }
    if bytes.len() < 16 {
        return Ok(None); // empty or torn header: start fresh
    }
    if &bytes[..8] != WAL_MAGIC {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!("{} is not a horizon WAL", path.display()),
        ));
    }
    let file_hash = u64::from_le_bytes(bytes[8..16].try_into().expect("8 bytes"));
    if file_hash != hash {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!(
                "{} belongs to a different run (parameter/kernel fingerprint mismatch); \
                 delete it or point the run elsewhere",
                path.display()
            ),
        ));
    }
    let mut pos = 16usize;
    let mut last: Option<(WalRecord, u64)> = None;
    while pos + 8 <= bytes.len() {
        let len = u32::from_le_bytes(bytes[pos..pos + 4].try_into().expect("4 bytes")) as usize;
        let crc = u32::from_le_bytes(bytes[pos + 4..pos + 8].try_into().expect("4 bytes"));
        let Some(payload) = bytes.get(pos + 8..pos + 8 + len) else {
            break; // torn tail: frame truncated
        };
        if crc32(payload) != crc {
            break; // torn tail: frame corrupted
        }
        let Some(rec) = bytes_to_words(payload).and_then(|w| WalRecord::from_words(&w)) else {
            break;
        };
        pos += 8 + len;
        last = Some((rec, pos as u64));
    }
    Ok(last)
}

/// An append handle over the WAL, positioned after the last intact
/// record (any torn tail is truncated away on open).
struct WalWriter {
    file: File,
}

impl WalWriter {
    fn create(path: &Path, hash: u64) -> io::Result<WalWriter> {
        let mut file = File::create(path)?;
        file.write_all(WAL_MAGIC)?;
        file.write_all(&hash.to_le_bytes())?;
        file.flush()?;
        Ok(WalWriter { file })
    }

    fn append_to(path: &Path, valid_len: u64) -> io::Result<WalWriter> {
        let file = OpenOptions::new().write(true).open(path)?;
        file.set_len(valid_len)?;
        let mut file = OpenOptions::new().append(true).open(path)?;
        file.flush()?;
        Ok(WalWriter { file })
    }

    fn append(&mut self, rec: &WalRecord) -> io::Result<()> {
        let payload = words_to_bytes(&rec.to_words());
        self.file.write_all(&(payload.len() as u32).to_le_bytes())?;
        self.file.write_all(&crc32(&payload).to_le_bytes())?;
        self.file.write_all(&payload)?;
        self.file.flush()
    }
}

/// Runs `config` (with `config.slots` as the — possibly extreme —
/// horizon) under segmented sampling and settled-prefix eviction; see
/// the [module docs](self) for the machinery and its laws. Fault plans
/// are out of scope here: the horizon driver targets the long-run
/// settlement scenarios, which are fault-free.
///
/// # Errors
///
/// Fails when the WAL exists but belongs to different parameters or its
/// last intact record cannot describe a compaction point of this run
/// (`InvalidData`, naming the field), on any WAL I/O error, when
/// [`HorizonOptions::max_live_blocks`] is exceeded, or when the sampling
/// thread cannot be spawned.
///
/// # Panics
///
/// Panics if `segment_slots` is 0 or the probability table disagrees
/// with `config` on the node count.
pub fn run_horizon(
    config: &SimConfig,
    probs: &LeaderProbs,
    seed: u64,
    opts: &HorizonOptions,
) -> io::Result<HorizonReport> {
    run_horizon_observed(config, probs, seed, opts, &mut (), None)
}

/// [`run_horizon`] with an obs [`Recorder`] and an optional stderr
/// [`Heartbeat`] attached: segment / compaction / WAL-append spans (and
/// inside each segment a `horizon.sample_wait` span: the kernel's wait
/// for the sampling thread), live-arena and peak-RSS gauges, and a
/// periodic progress line. The recorder only observes, so an
/// instrumented run produces a report bit-identical to
/// [`run_horizon`]'s (the plain entry point delegates here with the `()`
/// recorder, paying nothing per segment).
pub fn run_horizon_observed<R: Recorder>(
    config: &SimConfig,
    probs: &LeaderProbs,
    seed: u64,
    opts: &HorizonOptions,
    rec: &mut R,
    mut heartbeat: Option<&mut Heartbeat>,
) -> io::Result<HorizonReport> {
    assert!(opts.segment_slots > 0, "segment_slots must be positive");
    assert_eq!(
        probs.honest_nodes(),
        config.honest_nodes,
        "probability table and config disagree on the honest node count"
    );
    let total = config.slots;
    let seg = opts.segment_slots;
    let hash = params_hash(config, seed, opts);

    let resume = match &opts.wal {
        Some(path) => load_wal(path, hash)?,
        None => None,
    };

    let mut rng = StdRng::seed_from_u64(seed);
    let mut schedule = ColumnarSchedule::empty();
    let mut arena = ExecutionArena::new();
    let mut strategy = config.strategy.instantiate();
    let mut agg = Aggregates::new(&opts.ks);
    let empty_plan = FaultPlan::default();
    arena.reset(config, strategy.lookahead(config.delta), seg / 2 + 16);

    let mut active_slots = 0usize;
    let mut prefix_blocks = 0usize;
    let mut prefix_honest = 0usize;
    let mut compactions = 0u64;
    let mut peak_live = arena.store.len();
    let mut resumed_at = None;

    let mut core = EngineCore::new(config, &empty_plan, false);
    let mut state = match &resume {
        Some((rec, _)) => {
            let at = rec.slot as usize;
            if !at.is_multiple_of(seg) || at > total || rec.counts.len() != opts.ks.len() {
                return Err(io::Error::new(
                    io::ErrorKind::InvalidData,
                    "WAL record does not fit the horizon grid",
                ));
            }
            rec.check(strategy.checkpoint_state().len())?;
            // Re-derive the RNG position: replay the schedule sampling
            // of the completed prefix (fixed draws per slot make this
            // exact; no RNG internals ever touch the WAL).
            for _ in 0..at / seg {
                schedule.resample_segment(probs, seg, &mut rng);
            }
            arena.store.reset_to_root(
                rec.root_slot as usize,
                rec.root_height as usize,
                rec.root_issuer as u32,
            );
            strategy.restore_state(&rec.strategy);
            agg.counts.copy_from_slice(&rec.counts);
            for (slot, &f) in agg.first.iter_mut().zip(&rec.first) {
                *slot = (f != u64::MAX).then_some(f as usize);
            }
            agg.max_lag = (rec.max_lag != u64::MAX).then_some(rec.max_lag as usize);
            active_slots = rec.active_slots as usize;
            prefix_blocks = rec.prefix_blocks as usize;
            prefix_honest = rec.prefix_honest as usize;
            compactions = rec.compactions;
            peak_live = rec.peak_live as usize;
            resumed_at = Some(at);
            core.done = at;
            let acc = MetricsAccumulator::restore(
                rec.acc_slots as usize,
                rec.acc_max_div as usize,
                rec.acc_rollbacks as usize,
            );
            let fold = DivergenceFold::resume_at(total, at);
            SlotFold::new(fold, acc, rec.root_height as usize)
        }
        None => SlotFold::new(
            DivergenceFold::windowed(total),
            MetricsAccumulator::new(),
            0,
        ),
    };

    let mut wal = match (&opts.wal, &resume) {
        (Some(path), Some((_, valid_len))) => Some(WalWriter::append_to(path, *valid_len)?),
        (Some(path), None) => Some(WalWriter::create(path, hash)?),
        (None, _) => None,
    };

    // The sampler thread owns the RNG and draws segment i + 1 while this
    // thread runs segment i. `filled` carries a drawn segment here and
    // `spent` returns the buffer: with two buffers the sampler is never
    // more than one segment ahead. Every return from the closure drops
    // this side's channel ends, which stops the sampler before the scope
    // joins it.
    std::thread::scope(|scope| -> io::Result<()> {
        let (spent_tx, spent_rx) = mpsc::sync_channel::<ColumnarSchedule>(2);
        let (filled_tx, filled_rx) = mpsc::sync_channel::<ColumnarSchedule>(1);
        for buffer in [schedule, ColumnarSchedule::empty()] {
            spent_tx
                .send(buffer)
                .expect("the spent channel holds both buffers");
        }
        let first = core.done;
        std::thread::Builder::new()
            .name("horizon-sampler".into())
            .spawn_scoped(scope, move || {
                let mut start = first;
                while start < total {
                    let Ok(mut schedule) = spent_rx.recv() else {
                        return;
                    };
                    let len = seg.min(total - start);
                    schedule.resample_segment(probs, len, &mut rng);
                    if filled_tx.send(schedule).is_err() {
                        return;
                    }
                    start += len;
                }
            })?;

        while core.done < total {
            rec.span_begin("horizon.segment");
            rec.span_begin("horizon.sample_wait");
            let schedule = filled_rx
                .recv()
                .expect("the sampling thread draws every segment of the horizon");
            rec.span_end("horizon.sample_wait");
            active_slots += schedule.active_slots();
            let mut obs = Inline {
                state: &mut state,
                sink: &mut (),
            };
            run_slots(
                &mut arena,
                &mut core,
                config,
                &schedule,
                strategy.as_mut(),
                &mut obs,
            );
            // Fails only once the sampler has drawn the last segment.
            let _ = spent_tx.send(schedule);
            rec.span_end("horizon.segment");
            let done = core.done;
            peak_live = peak_live.max(arena.store.len());
            rec.gauge("horizon.live_blocks", arena.store.len() as i64);
            rec.gauge("horizon.peak_live_blocks", peak_live as i64);
            if let Some(hb) = heartbeat.as_deref_mut() {
                if let Some(elapsed) = hb.due() {
                    // Rate over this run only: exclude any resumed prefix.
                    let base = resumed_at.unwrap_or(0);
                    eprintln!(
                        "{}",
                        heartbeat_line(
                            "horizon",
                            (done - base) as u64,
                            (total - base) as u64,
                            "slots",
                            elapsed
                        )
                    );
                }
            }

            // Compaction attempt: only meaningful mid-run (the final
            // state is drained by the finish below) and only at a fully
            // settled point the strategy agrees to.
            if done < total && done.is_multiple_of(seg) {
                let tip = arena.tips[0];
                if arena.tips.iter().all(|&t| t == tip)
                    && arena.ring.is_idle()
                    && strategy.compact_to_root(BlockId::from_index(tip as usize), BlockId::GENESIS)
                {
                    debug_assert_eq!(state.div, 0, "unanimous tips imply zero divergence");
                    rec.span_begin("horizon.compaction");
                    state.fold.advance_base(done, |s, l| agg.drain(s, l));
                    state.fold.rebase_unanimous_root();
                    let (_, blocks, honest) = arena.best_chain();
                    prefix_blocks += blocks;
                    prefix_honest += honest;
                    arena.compact_to_root(tip);
                    compactions += 1;
                    rec.span_end("horizon.compaction");
                    rec.counter("horizon.compactions", 1);
                    if let Some(w) = &mut wal {
                        rec.span_begin("horizon.wal_append");
                        let (acc_slots, acc_max_div, acc_rollbacks) = state.acc.state();
                        let appended = w.append(&WalRecord {
                            slot: done as u64,
                            root_slot: arena.store.slot(0) as u64,
                            root_height: arena.store.height(0) as u64,
                            root_issuer: u64::from(arena.store.issuer(0)),
                            root_honest: u64::from(arena.store.is_honest(0)),
                            acc_slots: acc_slots as u64,
                            acc_max_div: acc_max_div as u64,
                            acc_rollbacks: acc_rollbacks as u64,
                            active_slots: active_slots as u64,
                            prefix_blocks: prefix_blocks as u64,
                            prefix_honest: prefix_honest as u64,
                            compactions,
                            peak_live: peak_live as u64,
                            max_lag: agg.max_lag.map_or(u64::MAX, |l| l as u64),
                            counts: agg.counts.clone(),
                            first: agg
                                .first
                                .iter()
                                .map(|f| f.map_or(u64::MAX, |s| s as u64))
                                .collect(),
                            strategy: strategy.checkpoint_state(),
                        });
                        rec.span_end("horizon.wal_append");
                        rec.counter("horizon.wal_appends", 1);
                        appended?;
                    }
                }
            }

            if opts.max_live_blocks > 0 && arena.store.len() > opts.max_live_blocks {
                return Err(io::Error::new(
                    io::ErrorKind::OutOfMemory,
                    format!(
                        "live arena exceeded the memory bound at slot {done}: {} blocks > {} \
                         (no settled compaction point accepted recently)",
                        arena.store.len(),
                        opts.max_live_blocks
                    ),
                ));
            }
        }
        Ok(())
    })?;
    // VmHWM is a high-water mark, so one read after the run records what
    // a read per segment would.
    if let Some(rss) = multihonest_obs::peak_rss_bytes() {
        rec.gauge("process.peak_rss_bytes", rss.min(i64::MAX as u64) as i64);
    }

    // Finish: drain the remaining fold window and walk the in-window
    // chain suffix; the evicted prefix lives in the running counters.
    let SlotFold { fold, acc, .. } = state;
    fold.finish_windowed(|s, l| agg.drain(s, l));
    let (best_tip, blocks, honest) = arena.best_chain();
    let metrics = acc.finish(
        active_slots,
        arena.store.height(best_tip),
        prefix_blocks + blocks,
        prefix_honest + honest,
        agg.max_lag,
    );
    Ok(HorizonReport {
        metrics,
        violating_anchors: agg.counts,
        first_violation: agg.first,
        compactions,
        peak_live_blocks: peak_live,
        resumed_at,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use multihonest_sim::{Strategy, TieBreak};

    const SEED: u64 = 11;

    fn config() -> SimConfig {
        SimConfig {
            honest_nodes: 5,
            adversarial_stake: 0.25,
            active_slot_coeff: 0.3,
            delta: 2,
            slots: 40_000,
            tie_break: TieBreak::AdversarialOrder,
            strategy: Strategy::PrivateWithholding,
        }
    }

    fn run(opts: &HorizonOptions) -> io::Result<HorizonReport> {
        let probs = LeaderProbs::weighted(&[0.15; 5], 0.25, 0.3);
        run_horizon(&config(), &probs, SEED, opts)
    }

    /// Rewrites the WAL's last record through `edit`, in a frame with a
    /// valid CRC, so only the record's content can be rejected.
    fn rewrite_last_record(opts: &HorizonOptions, edit: impl FnOnce(&mut WalRecord)) {
        let path = opts.wal.as_deref().expect("a WAL path");
        let hash = params_hash(&config(), SEED, opts);
        let (mut rec, end) = load_wal(path, hash)
            .expect("a readable WAL")
            .expect("at least one compaction record");
        let start = end as usize - 8 - 8 * rec.to_words().len();
        edit(&mut rec);
        let payload = words_to_bytes(&rec.to_words());
        let mut bytes = std::fs::read(path).expect("read the WAL");
        bytes.truncate(start);
        bytes.extend_from_slice(&(payload.len() as u32).to_le_bytes());
        bytes.extend_from_slice(&crc32(&payload).to_le_bytes());
        bytes.extend_from_slice(&payload);
        std::fs::write(path, bytes).expect("rewrite the WAL");
    }

    /// Runs a short horizon that writes a WAL, checks that an intact
    /// rewrite of its last record resumes to the same report, then breaks
    /// one field through `edit` and returns the resume error's message.
    fn resume_error(tag: &str, edit: impl FnOnce(&mut WalRecord)) -> String {
        let path = std::env::temp_dir().join(format!("horizon_unit_{tag}_{}", std::process::id()));
        let _ = std::fs::remove_file(&path);
        let opts = HorizonOptions {
            segment_slots: 4096,
            wal: Some(path.clone()),
            ..HorizonOptions::default()
        };
        let straight = run(&opts).expect("straight run");
        rewrite_last_record(&opts, |_| {});
        let resumed = run(&opts).expect("an intact record resumes");
        assert!(resumed.resumed_at.is_some());
        assert_eq!(
            HorizonReport {
                resumed_at: None,
                ..resumed
            },
            straight
        );
        rewrite_last_record(&opts, edit);
        let err = run(&opts).expect_err("a broken field must be rejected");
        let _ = std::fs::remove_file(&path);
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        err.to_string()
    }

    #[test]
    fn resume_rejects_a_root_honesty_that_contradicts_the_issuer() {
        let msg = resume_error("honest", |r| r.root_honest ^= 1);
        assert!(msg.contains("root_honest"), "{msg}");
    }

    #[test]
    fn resume_rejects_a_root_issuer_outside_u32() {
        let msg = resume_error("issuer", |r| r.root_issuer = 1 << 40);
        assert!(msg.contains("root_issuer"), "{msg}");
    }

    #[test]
    fn resume_rejects_a_root_slot_past_the_compaction_point() {
        let msg = resume_error("slot", |r| r.root_slot = r.slot + 1);
        assert!(msg.contains("root_slot"), "{msg}");
    }

    #[test]
    fn resume_rejects_a_root_height_above_the_root_slot() {
        let msg = resume_error("height", |r| r.root_height = r.root_slot + 1);
        assert!(msg.contains("root_height"), "{msg}");
    }

    #[test]
    fn resume_rejects_a_strategy_state_of_the_wrong_length() {
        let short = resume_error("short_state", |r| {
            r.strategy.pop();
        });
        assert!(short.contains("strategy state"), "{short}");
        let long = resume_error("long_state", |r| r.strategy.push(0));
        assert!(long.contains("strategy state"), "{long}");
    }
}
