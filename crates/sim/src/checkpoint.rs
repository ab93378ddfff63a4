//! Crash-consistent checkpointing of a running simulation.
//!
//! A [`Checkpoint`] captures the *complete* resumable state of a
//! [`Simulation`] — both alarm queues with their batching intact, the
//! device's energy accumulators and wakelocks, the event heap with its
//! deterministic tie-break sequence numbers, the delivery trace, the
//! attribution ledger, the fault-injection RNG stream, watchdog
//! quarantine/probation state, and any in-flight reboot outage — such
//! that a run resumed from the checkpoint is **byte-identical** in trace
//! and report to the straight-through run (the engine's tests assert
//! this).
//!
//! # Persistence format (`simty-checkpoint/v1`)
//!
//! A persisted checkpoint is a UTF-8 text file with a three-line
//! envelope followed by the body:
//!
//! ```text
//! simty-checkpoint/v1
//! len=<body length in bytes>
//! sum=<FNV-1a-64 checksum of the body, 16 hex digits>
//! <body: one `key=value` line per field>
//! ```
//!
//! Floating-point values are serialized as the 16-hex-digit IEEE-754 bit
//! pattern, so round-trips are exact. Writes go through a temp file and
//! an atomic rename ([`Checkpoint::write_atomic`]), so a crash mid-write
//! can never leave a torn checkpoint under the final name; reads detect
//! version skew, truncation, and corruption (checksum mismatch) and the
//! [`CheckpointStore`] falls back to the newest older snapshot that
//! still validates.
//!
//! # Capture cost
//!
//! The trace sections of the body (`d=` deliveries, `wk=` wakeups,
//! `iv=` interventions) only ever grow, so each trace record is encoded
//! once per simulation: the engine keeps the encoded lines next to the
//! simulation, extends them at every scheduled capture, and each
//! capture, scheduled or [`Simulation::checkpoint`], copies them and
//! encodes only the records past them. Everything else, the span and
//! audit rings included (they evict from the front), is re-encoded at
//! every capture; the ring capacities bound that part. Every writer
//! appends straight into the body, with no temporary strings. A
//! restored simulation starts with an empty cache, so its first capture
//! encodes the whole trace.
//!
//! # Untrusted bodies
//!
//! A body that passes the checksum is still untrusted. Restore reads
//! each line into a fixed-size field array and rejects any record count
//! larger than the number of lines left in the body as
//! [`CheckpointError::Malformed`], so no count makes it reserve memory
//! or loop for records the body does not hold.

use std::collections::{BTreeMap, HashMap};
use std::fmt::{self, Write as _};
use std::fs;
use std::io;
use std::path::{Path, PathBuf};
use std::sync::Arc;

use simty_core::admission::{
    AdmissionConfig, AdmissionController, AppAdmission, ClassQuota, TokenBucket,
};
use simty_core::alarm::{Alarm, AlarmId, AlarmKind, Repeat};
use simty_core::audit::{CandidateAudit, CandidateVerdict, PlacementAudit};
use simty_core::entry::{DeliveryDiscipline, QueueEntry};
use simty_core::hardware::{HardwareComponent, HardwareSet};
use simty_core::manager::AlarmManager;
use simty_core::policy::{AlignmentPolicy, Placement};
use simty_core::queue::AlarmQueue;
use simty_core::similarity::{Preferability, TimeSimilarity};
use simty_core::time::{SimDuration, SimTime};
use simty_device::device::{Device, DevicePowerState, DeviceSnapshot};
use simty_device::energy::EnergyMeter;
use simty_device::monsoon::PowerTrace;
use simty_device::power::{ComponentPower, PowerModel};
use simty_device::wakelock::WakeLockTable;
use simty_obs::{AttrValue, Span, SpanCollector, SpanKind, StageProfile};

use crate::attribution::{ActiveTask, AttributionLedger};
use crate::config::{InvariantMode, ObsLevel, SimConfig};
use crate::degrade::{DegradationGovernor, DegradationTier, GovernorConfig};
use crate::engine::{RetrySlot, Simulation, TaskHold};
use crate::event::{Event, EventKind, EventQueue};
use crate::fault::{CrashSpec, FaultPlan, FaultState, StormSpec};
use crate::invariant::{InvariantMonitor, InvariantViolation};
use crate::metrics::OverloadStats;
use crate::obs::{ObsLayer, SPAN_CAPACITY};
use crate::vfs::{RealVfs, Vfs};
use crate::overload::StormBurst;
use crate::trace::{DeliveryRecord, InterventionKind, InterventionRecord, Trace};
use crate::watchdog::{OnlineWatchdogConfig, WatchdogPolicy};

/// The format magic and version, first line of every persisted
/// checkpoint.
pub const MAGIC: &str = "simty-checkpoint/v1";

const N_COMPONENTS: usize = HardwareComponent::ALL.len();

/// Why a checkpoint could not be captured, persisted, or restored.
#[derive(Debug)]
pub enum CheckpointError {
    /// An underlying filesystem operation failed.
    Io(io::Error),
    /// The file does not start with the `simty-checkpoint/` magic at
    /// all — it is not a checkpoint.
    BadMagic {
        /// The first line actually found.
        found: String,
    },
    /// The file is a checkpoint, but of a different format version.
    VersionSkew {
        /// The version line actually found.
        found: String,
    },
    /// The body is shorter (or longer) than the length the envelope
    /// declares — the write was cut short.
    Truncated {
        /// Bytes the envelope promised.
        expected: usize,
        /// Bytes actually present.
        actual: usize,
    },
    /// The body's FNV-1a-64 checksum does not match the envelope —
    /// bit rot or tampering.
    ChecksumMismatch {
        /// Checksum the envelope declares.
        expected: u64,
        /// Checksum of the body as read.
        actual: u64,
    },
    /// The body failed structural validation.
    Malformed {
        /// 1-based body line number.
        line: usize,
        /// What went wrong.
        message: String,
    },
    /// The caller-supplied policy does not match the policy recorded in
    /// the checkpoint (policies are stateless, so restore takes the
    /// policy by value and validates it by name).
    PolicyMismatch {
        /// Policy name recorded at capture time.
        recorded: String,
        /// Name of the policy handed to restore.
        provided: String,
    },
    /// No snapshot in the store validated.
    NoUsableCheckpoint {
        /// The store directory.
        dir: PathBuf,
        /// How many corrupt snapshots were skipped.
        skipped: usize,
    },
}

impl fmt::Display for CheckpointError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CheckpointError::Io(e) => write!(f, "i/o: {e}"),
            CheckpointError::BadMagic { found } => {
                write!(f, "not a checkpoint (first line `{found}`)")
            }
            CheckpointError::VersionSkew { found } => {
                write!(f, "unsupported checkpoint version `{found}` (expected `{MAGIC}`)")
            }
            CheckpointError::Truncated { expected, actual } => {
                write!(f, "truncated: body is {actual} bytes, envelope declares {expected}")
            }
            CheckpointError::ChecksumMismatch { expected, actual } => write!(
                f,
                "checksum mismatch: body sums to {actual:016x}, envelope declares {expected:016x}"
            ),
            CheckpointError::Malformed { line, message } => {
                write!(f, "malformed body at line {line}: {message}")
            }
            CheckpointError::PolicyMismatch { recorded, provided } => write!(
                f,
                "policy mismatch: checkpoint was captured under `{recorded}`, restore got `{provided}`"
            ),
            CheckpointError::NoUsableCheckpoint { dir, skipped } => write!(
                f,
                "no usable checkpoint in {} ({skipped} corrupt snapshot(s) skipped)",
                dir.display()
            ),
        }
    }
}

impl std::error::Error for CheckpointError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            CheckpointError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<io::Error> for CheckpointError {
    fn from(e: io::Error) -> Self {
        CheckpointError::Io(e)
    }
}

use crate::codec::{
    esc_into, fnv1a64, join, kv, push_hex16, push_u64, read_registry, unesc, unesc_cow,
    write_registry, Esc, Field, KvLines,
};

/// One captured snapshot: the serialized body plus the two fields needed
/// to identify it without a full parse.
#[derive(Debug, Clone, PartialEq)]
pub struct Checkpoint {
    pub(crate) captured_at: SimTime,
    pub(crate) policy: String,
    pub(crate) body: String,
}

impl Checkpoint {
    /// The simulated instant at which this snapshot was captured.
    pub fn captured_at(&self) -> SimTime {
        self.captured_at
    }

    /// The name of the alignment policy governing the captured run;
    /// [`Simulation::restore`] validates its argument against this.
    pub fn policy_name(&self) -> &str {
        &self.policy
    }

    /// Builds a *marker* checkpoint: a snapshot that carries an opaque
    /// caller payload instead of full simulation state. Fleet shards
    /// persist their progress (device cursor + folded partial report)
    /// through the same [`CheckpointStore`] envelope — magic, length,
    /// checksum, atomic rename — so torn or corrupt markers are skipped
    /// by [`CheckpointStore::load_latest_good`] exactly like torn
    /// snapshots. A marker cannot be passed to `Simulation::restore`.
    pub fn marker(at: SimTime, policy: &str, payload: &str) -> Checkpoint {
        let mut body = String::new();
        kv!(&mut body, "at", at);
        kv!(&mut body, "policy", Esc(policy));
        kv!(&mut body, "payload", Esc(payload));
        Checkpoint {
            captured_at: at,
            policy: policy.to_owned(),
            body,
        }
    }

    /// The opaque payload of a [`marker`](Checkpoint::marker)
    /// checkpoint, or `None` for a full simulation snapshot.
    pub fn marker_payload(&self) -> Option<String> {
        let mut lines = self.body.lines();
        let _at = lines.next()?;
        let _policy = lines.next()?;
        let payload = lines.next()?.strip_prefix("payload=")?;
        Some(unesc(payload))
    }

    /// Serializes the checkpoint in the persisted `simty-checkpoint/v1`
    /// format (envelope + body).
    pub fn to_bytes(&self) -> Vec<u8> {
        let body = self.body.as_bytes();
        let mut out = String::new();
        let _ = writeln!(out, "{MAGIC}");
        let _ = writeln!(out, "len={}", body.len());
        let _ = writeln!(out, "sum={:016x}", fnv1a64(body));
        let mut bytes = out.into_bytes();
        bytes.extend_from_slice(body);
        bytes
    }

    /// Parses and validates a persisted checkpoint: magic, version,
    /// declared length (truncation), and checksum (corruption).
    ///
    /// # Errors
    ///
    /// See [`CheckpointError`]; every corruption mode maps to a distinct
    /// variant so callers can report what went wrong before falling back
    /// to an older snapshot.
    pub fn from_bytes(bytes: &[u8]) -> Result<Checkpoint, CheckpointError> {
        let text = std::str::from_utf8(bytes).map_err(|e| CheckpointError::Malformed {
            line: 0,
            message: format!("not utf-8: {e}"),
        })?;
        let (magic_line, rest) = text.split_once('\n').ok_or(CheckpointError::BadMagic {
            found: text.chars().take(64).collect(),
        })?;
        if magic_line != MAGIC {
            if magic_line.starts_with("simty-checkpoint/") {
                return Err(CheckpointError::VersionSkew {
                    found: magic_line.to_owned(),
                });
            }
            return Err(CheckpointError::BadMagic {
                found: magic_line.to_owned(),
            });
        }
        let (len_line, rest) = rest.split_once('\n').ok_or(CheckpointError::Truncated {
            expected: 0,
            actual: 0,
        })?;
        let expected_len: usize = len_line
            .strip_prefix("len=")
            .and_then(|v| v.parse().ok())
            .ok_or_else(|| CheckpointError::Malformed {
                line: 0,
                message: format!("bad length line `{len_line}`"),
            })?;
        let (sum_line, body) = rest.split_once('\n').ok_or(CheckpointError::Truncated {
            expected: expected_len,
            actual: 0,
        })?;
        let expected_sum = sum_line
            .strip_prefix("sum=")
            .and_then(|v| u64::from_str_radix(v, 16).ok())
            .ok_or_else(|| CheckpointError::Malformed {
                line: 0,
                message: format!("bad checksum line `{sum_line}`"),
            })?;
        if body.len() != expected_len {
            return Err(CheckpointError::Truncated {
                expected: expected_len,
                actual: body.len(),
            });
        }
        let actual_sum = fnv1a64(body.as_bytes());
        if actual_sum != expected_sum {
            return Err(CheckpointError::ChecksumMismatch {
                expected: expected_sum,
                actual: actual_sum,
            });
        }
        // The body leads with `at=` and `policy=`; parse just those two
        // here so the snapshot is identifiable without a full restore.
        let mut p = Parser::new(body);
        let at = p.kv_time("at")?;
        let policy = unesc(p.kv("policy")?);
        Ok(Checkpoint {
            captured_at: at,
            policy,
            body: body.to_owned(),
        })
    }

    /// Persists the checkpoint via write-ahead temp file + atomic
    /// rename: the final path either holds the complete old content or
    /// the complete new content, never a torn write.
    ///
    /// # Errors
    ///
    /// Propagates filesystem errors.
    pub fn write_atomic(&self, path: &Path) -> Result<(), CheckpointError> {
        self.write_atomic_vfs(&RealVfs, path)
    }

    /// [`write_atomic`](Self::write_atomic) over an explicit [`Vfs`],
    /// so tests can inject host-I/O faults at every step. The sequence
    /// is write temp → fsync temp → rename → **fsync parent directory**;
    /// without the final directory sync a crash right after the rename
    /// can lose the new directory entry (and with it the snapshot).
    ///
    /// # Errors
    ///
    /// Propagates filesystem errors. On failure the temp file is
    /// removed (best-effort) so a dead write never shadows a later one.
    pub fn write_atomic_vfs(&self, vfs: &dyn Vfs, path: &Path) -> Result<(), CheckpointError> {
        let (dir, tmp) = match (path.parent(), path.file_name()) {
            (Some(dir), Some(name)) => {
                let mut tmp_name = name.to_owned();
                tmp_name.push(".tmp");
                (dir, dir.join(tmp_name))
            }
            _ => {
                return Err(CheckpointError::Io(io::Error::new(
                    io::ErrorKind::InvalidInput,
                    format!("checkpoint path `{}` has no parent/file name", path.display()),
                )))
            }
        };
        let attempt = (|| {
            vfs.write_file(&tmp, &self.to_bytes())?;
            vfs.sync_file(&tmp)?;
            vfs.rename(&tmp, path)?;
            vfs.sync_dir(dir)
        })();
        if let Err(e) = attempt {
            let _ = vfs.remove_file(&tmp);
            return Err(CheckpointError::Io(e));
        }
        Ok(())
    }

    /// Reads and validates a persisted checkpoint.
    ///
    /// # Errors
    ///
    /// Propagates filesystem errors and every validation failure of
    /// [`from_bytes`](Self::from_bytes).
    pub fn read_from(path: &Path) -> Result<Checkpoint, CheckpointError> {
        Checkpoint::from_bytes(&fs::read(path)?)
    }

    /// [`read_from`](Self::read_from) over an explicit [`Vfs`].
    ///
    /// # Errors
    ///
    /// Propagates filesystem errors and every validation failure of
    /// [`from_bytes`](Self::from_bytes).
    pub fn read_from_vfs(vfs: &dyn Vfs, path: &Path) -> Result<Checkpoint, CheckpointError> {
        Checkpoint::from_bytes(&vfs.read(path)?)
    }
}

/// A directory of numbered snapshots (`ckpt-<seq>`), newest last.
///
/// [`load_latest_good`](Self::load_latest_good) walks the snapshots
/// newest-first and returns the first one that validates, so a corrupt
/// (bit-flipped, truncated, or version-skewed) latest snapshot degrades
/// to the last good one instead of failing the recovery.
#[derive(Debug)]
pub struct CheckpointStore {
    dir: PathBuf,
    next_seq: u64,
    vfs: Arc<dyn Vfs>,
}

impl CheckpointStore {
    /// Opens (creating if needed) a store at `dir` on the real
    /// filesystem.
    ///
    /// # Errors
    ///
    /// Propagates filesystem errors.
    pub fn open(dir: impl Into<PathBuf>) -> Result<CheckpointStore, CheckpointError> {
        Self::open_with(dir, Arc::new(RealVfs))
    }

    /// Opens (creating if needed) a store at `dir` over an explicit
    /// [`Vfs`] — the fault-injection entry point.
    ///
    /// # Errors
    ///
    /// Propagates filesystem errors.
    pub fn open_with(
        dir: impl Into<PathBuf>,
        vfs: Arc<dyn Vfs>,
    ) -> Result<CheckpointStore, CheckpointError> {
        let dir = dir.into();
        vfs.create_dir_all(&dir)?;
        let next_seq = Self::scan(vfs.as_ref(), &dir)?
            .last()
            .map_or(0, |(seq, _)| seq + 1);
        Ok(CheckpointStore { dir, next_seq, vfs })
    }

    /// The store directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Saves a snapshot under the next sequence number, atomically.
    ///
    /// The sequence number is consumed even when the write fails, so a
    /// slot whose write died (possibly leaving a torn prefix behind) is
    /// never reused by a later save.
    ///
    /// # Errors
    ///
    /// Propagates filesystem errors.
    pub fn save(&mut self, checkpoint: &Checkpoint) -> Result<PathBuf, CheckpointError> {
        let path = self.dir.join(format!("ckpt-{:06}", self.next_seq));
        self.next_seq += 1;
        checkpoint.write_atomic_vfs(self.vfs.as_ref(), &path)?;
        Ok(path)
    }

    /// Loads the newest snapshot that validates, returning it along with
    /// the number of corrupt newer snapshots that were skipped.
    ///
    /// # Errors
    ///
    /// [`CheckpointError::NoUsableCheckpoint`] if every snapshot is
    /// corrupt or the store is empty; filesystem errors are propagated.
    pub fn load_latest_good(&self) -> Result<(Checkpoint, usize), CheckpointError> {
        let mut skipped = 0;
        for (_, path) in Self::scan(self.vfs.as_ref(), &self.dir)?.into_iter().rev() {
            match Checkpoint::read_from_vfs(self.vfs.as_ref(), &path) {
                Ok(ckpt) => return Ok((ckpt, skipped)),
                Err(CheckpointError::Io(e)) if e.kind() == io::ErrorKind::NotFound => {
                    // A file that vanished between scan and read (e.g. a
                    // torn rename that lost the entry) is just a missing
                    // snapshot, not a fatal store error.
                    skipped += 1;
                }
                Err(CheckpointError::Io(e)) => return Err(CheckpointError::Io(e)),
                Err(_) => skipped += 1,
            }
        }
        Err(CheckpointError::NoUsableCheckpoint {
            dir: self.dir.clone(),
            skipped,
        })
    }

    /// The `(seq, path)` pairs of every `ckpt-<seq>` file, sorted by
    /// sequence number.
    fn scan(vfs: &dyn Vfs, dir: &Path) -> Result<Vec<(u64, PathBuf)>, CheckpointError> {
        let mut out = Vec::new();
        for path in vfs.read_dir(dir)? {
            let Some(name) = path.file_name().and_then(|n| n.to_str()) else {
                continue;
            };
            let Some(seq) = name.strip_prefix("ckpt-").and_then(|s| s.parse().ok()) else {
                continue;
            };
            out.push((seq, path));
        }
        out.sort();
        Ok(out)
    }
}

impl Field for AlarmId {
    fn put(&self, out: &mut String) {
        push_u64(out, self.as_u64());
    }
}

impl Field for HardwareSet {
    fn put(&self, out: &mut String) {
        self.bits().put(out);
    }
}

impl Field for AlarmKind {
    fn put(&self, out: &mut String) {
        out.push(match self {
            AlarmKind::Wakeup => 'w',
            AlarmKind::NonWakeup => 'n',
        });
    }
}

impl Field for Repeat {
    fn put(&self, out: &mut String) {
        match self {
            Repeat::OneShot => out.push('o'),
            Repeat::Static(i) => join!(out, ':', "s", i),
            Repeat::Dynamic(i) => join!(out, ':', "d", i),
        }
    }
}

impl Field for Alarm {
    fn put(&self, out: &mut String) {
        join!(
            out,
            ',',
            self.id(),
            Esc(self.label()),
            self.nominal(),
            self.window(),
            // The registered base grace: `grace()` reports the effective
            // (possibly stretched) value, which is re-derived on restore
            // from the persisted stretch factor below.
            self.grace_base(),
            self.repeat(),
            self.kind(),
            self.hardware(),
            self.is_hardware_known(),
            self.task_duration(),
            self.is_quarantined(),
            self.grace_stretch(),
        );
    }
}

impl Field for EventKind {
    fn put(&self, out: &mut String) {
        match self {
            EventKind::RtcAlarm => out.push_str("rtc"),
            EventKind::WakeComplete => out.push_str("wake"),
            EventKind::TaskEnd => out.push_str("taskend"),
            EventKind::TrySleep => out.push_str("trysleep"),
            EventKind::NonWakeupCheck => out.push_str("nonwakeup"),
            EventKind::ExternalWake => out.push_str("extwake"),
            EventKind::Reregister { id } => join!(out, ':', "rereg", id),
            EventKind::WatchdogCheck => out.push_str("watchdog"),
            EventKind::ActivationRetry { slot } => join!(out, ':', "actretry", slot),
            EventKind::AppCrash { app, restart_after } => {
                join!(out, ':', "crash", restart_after, Esc(app));
            }
            EventKind::AppRestart { app } => join!(out, ':', "apprestart", Esc(app)),
            EventKind::Reboot { outage } => join!(out, ':', "reboot", outage),
            EventKind::BootComplete => out.push_str("boot"),
            EventKind::Checkpoint => out.push_str("checkpoint"),
            EventKind::GovernorTick => out.push_str("govtick"),
            EventKind::StormRegister { burst, k } => join!(out, ':', "storm", burst, k),
        }
    }
}

impl Field for InterventionKind {
    fn put(&self, out: &mut String) {
        match self {
            InterventionKind::ForcedRelease { held } => join!(out, ':', "forced", held),
            InterventionKind::ActivationRetry { attempt } => {
                join!(out, ':', "actretry", attempt);
            }
            InterventionKind::DroppedFireRetry { delay } => join!(out, ':', "dropped", delay),
            InterventionKind::Quarantine => out.push_str("quarantine"),
            InterventionKind::Recovery { quarantined_for } => {
                join!(out, ':', "recovery", quarantined_for);
            }
            InterventionKind::AppCrash { cancelled } => join!(out, ':', "crash", cancelled),
            InterventionKind::AppRestart { reregistered } => {
                join!(out, ':', "restart", reregistered);
            }
            InterventionKind::Reboot { outage } => join!(out, ':', "reboot", outage),
            InterventionKind::BootCatchUp {
                caught_up,
                worst_delay,
            } => join!(out, ':', "catchup", caught_up, worst_delay),
        }
    }
}

impl Field for DeliveryDiscipline {
    fn put(&self, out: &mut String) {
        match self {
            DeliveryDiscipline::Window => out.push_str("window"),
            DeliveryDiscipline::PerceptibilityAware => out.push_str("perc"),
            DeliveryDiscipline::Quantized { quantum } => join!(out, ':', "quant", quantum),
            DeliveryDiscipline::Escalating {
                base,
                max_quantum,
                windows_per_level,
            } => join!(out, ':', "esc", base, max_quantum, windows_per_level),
        }
    }
}

impl Field for InvariantViolation {
    fn put(&self, out: &mut String) {
        match self {
            InvariantViolation::PerceptibleWindowMiss {
                label,
                delivered_at,
                window_end,
                allowed_slack,
            } => join!(out, ':', "miss", delivered_at, window_end, allowed_slack, Esc(label)),
            InvariantViolation::QueueOrderBroken { earlier, later } => {
                join!(out, ':', "order", earlier, later);
            }
            InvariantViolation::EnergyNotConserved {
                ledger_mj,
                meter_mj,
            } => join!(out, ':', "energy", ledger_mj, meter_mj),
            InvariantViolation::WaveformMismatch { trace_mj, meter_mj } => {
                join!(out, ':', "waveform", trace_mj, meter_mj);
            }
        }
    }
}

impl Field for DevicePowerState {
    fn put(&self, out: &mut String) {
        match self {
            DevicePowerState::Asleep => out.push_str("asleep"),
            DevicePowerState::Waking { until } => join!(out, ':', "waking", until),
            DevicePowerState::Awake => out.push_str("awake"),
        }
    }
}

impl Field for DeliveryRecord {
    fn put(&self, out: &mut String) {
        join!(
            out,
            ',',
            self.alarm_id,
            Esc(&self.label),
            self.nominal,
            self.window_end,
            self.grace_end,
            self.delivered_at,
            self.repeat_interval.map_or(0, SimDuration::as_millis),
            self.hardware,
            self.perceptible,
            self.kind,
            self.entry_size,
            self.task_duration,
        );
    }
}

impl Field for InterventionRecord {
    fn put(&self, out: &mut String) {
        join!(out, ',', self.at, Esc(&self.app), self.overhead_mj, self.kind);
    }
}

impl Field for Placement {
    fn put(&self, out: &mut String) {
        match self {
            Placement::Existing(i) => {
                out.push('e');
                i.put(out);
            }
            Placement::NewEntry => out.push('n'),
        }
    }
}

impl Field for CandidateAudit {
    fn put(&self, out: &mut String) {
        join!(out, '.', self.index, self.delivery_time);
        out.push('.');
        out.push(match self.time {
            TimeSimilarity::High => 'h',
            TimeSimilarity::Medium => 'm',
            TimeSimilarity::Low => 'l',
        });
        out.push('.');
        match self.hw_rank {
            Some(rank) => rank.put(out),
            None => out.push('-'),
        }
        out.push('.');
        out.push(match self.verdict {
            CandidateVerdict::Won => 'w',
            CandidateVerdict::Outranked => 'o',
            CandidateVerdict::NotApplicable => 'n',
            CandidateVerdict::PastCutoff => 'c',
        });
    }
}

impl Field for PlacementAudit {
    fn put(&self, out: &mut String) {
        join!(
            out,
            ',',
            self.at,
            self.alarm_id,
            self.nominal,
            self.perceptible,
            self.placement,
            Esc(&self.app),
        );
        out.push(',');
        if self.candidates.is_empty() {
            out.push('-');
        }
        for (i, c) in self.candidates.iter().enumerate() {
            if i > 0 {
                out.push(';');
            }
            c.put(out);
        }
    }
}

impl Field for Span {
    fn put(&self, out: &mut String) {
        join!(
            out,
            ',',
            self.seq,
            self.kind.as_str(),
            self.start_ms,
            self.end_ms,
            self.attrs.len()
        );
        for (k, v) in &self.attrs {
            out.push(',');
            esc_into(out, k);
            out.push(',');
            match v {
                // Digits need no escaping and no rendered temporary.
                AttrValue::U64(n) => push_u64(out, *n),
                other => esc_into(out, &other.render()),
            }
        }
    }
}

fn write_queue(body: &mut String, key: &str, queue: &AlarmQueue) {
    kv!(body, key, queue.len());
    for entry in queue.entries() {
        kv!(body, "entry", entry.discipline(), entry.len());
        for alarm in entry.alarms() {
            kv!(body, "alarm", alarm);
        }
    }
}

/// The encoded `key=` lines of a prefix of an append-only record list.
#[derive(Debug, Default)]
struct Lines {
    text: String,
    /// How many records `text` covers.
    n: usize,
}

impl Lines {
    /// Encodes the records past the covered prefix into the cache.
    fn extend<T: Field>(&mut self, key: &str, records: &[T]) {
        for r in &records[self.n..] {
            kv!(&mut self.text, key, r);
        }
        self.n = records.len();
    }

    /// Appends the cached lines to `body`, then the records past them.
    fn write<T: Field>(&self, body: &mut String, key: &str, records: &[T]) {
        body.push_str(&self.text);
        for r in &records[self.n..] {
            kv!(body, key, r);
        }
    }
}

/// The encoded `d=`, `wk=` and `iv=` lines of a prefix of a [`Trace`],
/// and the largest alarm id among its deliveries.
///
/// The trace is append-only, so the engine extends this at every
/// scheduled capture and each capture copies it, encoding only the
/// records past it: the trace costs one encoding per simulation, not
/// one per capture. A restored simulation starts with an empty one.
#[derive(Debug, Default)]
pub(crate) struct TraceLines {
    deliveries: Lines,
    wakeups: Lines,
    interventions: Lines,
    max_alarm_id: u64,
}

impl TraceLines {
    /// Encodes the records `trace` gained since the last call.
    pub(crate) fn extend(&mut self, trace: &Trace) {
        self.max_alarm_id = self.max_alarm_id(trace);
        self.deliveries.extend("d", &trace.deliveries);
        self.wakeups.extend("wk", &trace.wakeups);
        self.interventions.extend("iv", &trace.interventions);
    }

    /// The largest alarm id among `trace`'s deliveries.
    fn max_alarm_id(&self, trace: &Trace) -> u64 {
        trace.deliveries[self.deliveries.n..]
            .iter()
            .map(|d| d.alarm_id.as_u64())
            .fold(self.max_alarm_id, u64::max)
    }

    /// Appends `trace`'s section of the body.
    fn write(&self, body: &mut String, trace: &Trace) {
        kv!(body, "deliveries", trace.deliveries.len());
        self.deliveries.write(body, "d", &trace.deliveries);
        kv!(body, "wakeups", trace.wakeups.len());
        self.wakeups.write(body, "wk", &trace.wakeups);
        kv!(body, "entry_deliveries", trace.entry_deliveries);
        kv!(body, "interventions", trace.interventions.len());
        self.interventions.write(body, "iv", &trace.interventions);
    }

    fn len(&self) -> usize {
        self.deliveries.text.len() + self.wakeups.text.len() + self.interventions.text.len()
    }
}

/// Serializes the complete resumable state of `sim` (see the
/// [module docs](self) for the format). Called by the engine both for
/// scheduled [`EventKind::Checkpoint`] captures and for explicit
/// [`Simulation::checkpoint`] calls.
pub(crate) fn capture(sim: &Simulation) -> Checkpoint {
    debug_assert!(
        sim.due_buffer.is_empty(),
        "capture must happen at an event boundary"
    );
    let cached = &sim.trace_lines;
    let mut out = String::with_capacity(cached.len() + 64 * 1024);
    let body = &mut out;

    // Identity.
    kv!(body, "at", sim.now);
    kv!(body, "policy", Esc(sim.manager.policy_name()));

    // The id-counter watermark: the largest alarm id anywhere in the
    // captured state, so restore can reserve past it.
    let (events, next_seq) = sim.events.snapshot();
    let queued = [sim.manager.wakeup_queue(), sim.manager.non_wakeup_queue()]
        .into_iter()
        .flat_map(|q| q.entries().iter().flat_map(QueueEntry::alarms));
    let stashed = sim.crash_stash.values().flatten();
    let rereg = events.iter().filter_map(|ev| match ev.kind {
        EventKind::Reregister { id } => Some(id.as_u64()),
        _ => None,
    });
    let max_id = queued
        .chain(stashed)
        .map(|a| a.id().as_u64())
        .chain(rereg)
        .fold(cached.max_alarm_id(&sim.trace), u64::max);
    kv!(body, "max_alarm_id", max_id);

    // Config.
    let config = &sim.config;
    kv!(body, "duration", config.duration);
    kv!(body, "record_waveform", config.record_waveform);
    kv!(
        body,
        "invariants",
        match config.invariants {
            InvariantMode::Off => "off",
            InvariantMode::Report => "report",
            InvariantMode::Strict => "strict",
        }
    );
    kv!(body, "checkpoint_every", config.checkpoint_every);
    kv!(body, "audit_capacity", config.audit_capacity);
    // Written only when overridden: default-capacity captures keep the
    // original byte layout, and restore treats absence as the default.
    if config.span_capacity != SPAN_CAPACITY {
        kv!(body, "span_capacity", config.span_capacity);
    }
    // Written only below the default level: `Spans` captures keep the
    // original byte layout, and restore treats absence as `Spans`.
    match config.obs {
        ObsLevel::Off => kv!(body, "obs", "0"),
        ObsLevel::Metrics => kv!(body, "obs", "metrics"),
        ObsLevel::Spans => {}
    }
    kv!(body, "external_wakes", config.external_wakes.len());
    for t in &config.external_wakes {
        kv!(body, "xw", t);
    }
    match &config.online_watchdog {
        None => kv!(body, "watchdog", "none"),
        Some(wd) => kv!(
            body,
            "watchdog",
            wd.policy.max_task_hold,
            wd.policy.max_duty_cycle,
            wd.quarantine_after,
            wd.probation
        ),
    }
    match &config.admission {
        None => kv!(body, "admission", "none"),
        Some(a) => kv!(
            body,
            "admission",
            a.perceptible.replenish_every,
            a.perceptible.burst,
            a.deferrable.replenish_every,
            a.deferrable.burst,
            a.defer_limit,
            a.demote_after
        ),
    }
    match &config.degradation {
        None => kv!(body, "degradation", "none"),
        Some(g) => kv!(
            body,
            "degradation",
            g.capacity_mj,
            g.check_every,
            g.saver_enter_milli,
            g.saver_exit_milli,
            g.critical_enter_milli,
            g.critical_exit_milli,
            g.saver_stretch_milli,
            g.critical_stretch_milli,
            g.shed_in_critical
        ),
    }

    // Power model.
    let power = &config.power;
    kv!(body, "sleep_mw", power.sleep_power_mw);
    kv!(body, "awake_mw", power.awake_base_power_mw);
    kv!(body, "transition_mj", power.wake_transition_energy_mj);
    kv!(body, "wake_latency_ms", power.wake_latency);
    kv!(body, "sleep_linger_ms", power.sleep_linger);
    for c in HardwareComponent::ALL {
        let p = power.component(c);
        kv!(body, "component", p.activation_energy_mj, p.active_power_mw);
    }

    // Alarm manager.
    kv!(body, "mgr_clock", sim.manager.now());
    kv!(body, "mgr_stretch", sim.manager.grace_stretch());
    write_queue(body, "wakeup_entries", sim.manager.wakeup_queue());
    write_queue(body, "non_wakeup_entries", sim.manager.non_wakeup_queue());

    // Device.
    let dev = sim.device.snapshot();
    kv!(body, "dev_state", dev.state);
    let (sleep_mj, transition_mj, awake_mj, component_mj) = dev.meter.parts();
    kv!(body, "dev_meter", sleep_mj, transition_mj, awake_mj);
    kv!(body, "dev_meter_components", component_mj);
    let (expiry, activations) = dev.locks.parts();
    kv!(body, "dev_locks_expiry", expiry);
    kv!(body, "dev_locks_activations", activations);
    kv!(body, "dev_clock", dev.clock);
    kv!(body, "dev_cpu_busy", dev.cpu_busy_until);
    kv!(body, "dev_idle_since", dev.idle_since);
    kv!(body, "dev_wake_count", dev.wake_count);
    kv!(body, "dev_awake_time", dev.awake_time);
    match &dev.monitor {
        None => kv!(body, "dev_monitor", "none"),
        Some(trace) => {
            kv!(body, "dev_monitor", "present");
            kv!(body, "levels", trace.levels().len());
            for (t, mw) in trace.levels() {
                kv!(body, "lv", t, mw);
            }
            kv!(body, "impulses", trace.impulses().len());
            for (t, mj) in trace.impulses() {
                kv!(body, "im", t, mj);
            }
        }
    }

    // Event queue (snapshot preserves exact sequence numbers).
    kv!(body, "next_seq", next_seq);
    kv!(body, "events", events.len());
    for ev in &events {
        kv!(body, "ev", ev.time, ev.seq, ev.kind);
    }
    let mut armed: Vec<(u8, u64)> = sim.armed.iter().copied().collect();
    armed.sort_unstable();
    kv!(body, "armed", armed.len());
    for (tag, ms) in armed {
        kv!(body, "arm", tag, ms);
    }

    // Trace.
    cached.write(body, &sim.trace);

    // Attribution ledger (its power model is config.power; not repeated).
    let ledger = &sim.ledger;
    kv!(body, "ledger_active", ledger.active.len());
    for t in &ledger.active {
        kv!(body, "la", Esc(&t.app), t.hardware, t.until);
    }
    kv!(body, "ledger_apps", ledger.per_app.len());
    for (app, mj) in &ledger.per_app {
        kv!(body, "lp", Esc(app), mj);
    }
    kv!(body, "ledger_interventions", ledger.interventions.len());
    for (app, n) in &ledger.interventions {
        kv!(body, "li", Esc(app), n);
    }
    kv!(body, "ledger_overhead", ledger.overhead_mj);
    kv!(body, "ledger_pending", ledger.pending_transition_mj);
    kv!(body, "ledger_last", ledger.last);
    kv!(body, "ledger_awake", ledger.awake);

    // Fault-injection runtime.
    match &sim.faults {
        None => kv!(body, "faults", "none"),
        Some(fs) => {
            kv!(body, "faults", "present");
            let plan = &fs.plan;
            kv!(body, "f_seed", plan.seed);
            kv!(body, "f_jitter", plan.rtc_jitter);
            kv!(body, "f_drop_p", plan.drop_fire_p);
            kv!(body, "f_drop_retry", plan.drop_retry);
            kv!(body, "f_drop_cap", plan.drop_cap);
            kv!(body, "f_overrun_p", plan.overrun_p);
            kv!(body, "f_overrun", plan.overrun);
            kv!(body, "f_leak_p", plan.leak_p);
            kv!(body, "f_leak", plan.leak);
            kv!(body, "f_act_p", plan.activation_failure_p);
            kv!(body, "f_backoff_base", plan.backoff_base);
            kv!(body, "f_backoff_cap", plan.backoff_cap);
            kv!(body, "f_max_attempts", plan.max_attempts);
            kv!(body, "f_crashes", plan.crashes.len());
            for c in &plan.crashes {
                kv!(body, "fc", c.at, c.restart_after, Esc(&c.app));
            }
            kv!(body, "f_storms", plan.storms.len());
            for s in &plan.storms {
                kv!(body, "fs", s.start, s.duration, s.mean_interval);
            }
            body.push_str("f_rng=");
            push_hex16(body, fs.rng.state());
            body.push('\n');
            match fs.dropping {
                None => kv!(body, "f_dropping", "none"),
                Some((t, n)) => kv!(body, "f_dropping", t, n),
            }
        }
    }

    // Invariant monitor (slack may have been widened after construction).
    match &sim.monitor {
        None => kv!(body, "monitor", "none"),
        Some(m) => {
            kv!(body, "monitor", "present");
            kv!(body, "m_slack", m.slack);
            kv!(body, "m_panic", m.panic_on_violation);
            kv!(body, "m_misses", m.window_misses);
            kv!(body, "m_violations", m.violations.len());
            for v in &m.violations {
                kv!(body, "mv", v);
            }
        }
    }

    // Watchdog runtime state.
    kv!(body, "holds", sim.holds.len());
    for h in &sim.holds {
        kv!(body, "h", h.started, h.until, h.hardware, Esc(&h.app));
    }
    kv!(body, "offenses", sim.offenses.len());
    for (app, n) in &sim.offenses {
        kv!(body, "of", n, Esc(app));
    }
    kv!(body, "quarantined", sim.quarantined.len());
    for (app, (since, clean)) in &sim.quarantined {
        kv!(body, "qa", since, clean, Esc(app));
    }
    kv!(body, "retries", sim.activation_retries.len());
    for r in &sim.activation_retries {
        kv!(
            body,
            "rt",
            r.until,
            r.attempt,
            r.done,
            r.overhead_mj,
            r.hardware,
            Esc(&r.app)
        );
    }
    kv!(body, "stash_apps", sim.crash_stash.len());
    for (app, alarms) in &sim.crash_stash {
        kv!(body, "stash", alarms.len(), Esc(app));
        for alarm in alarms {
            kv!(body, "alarm", alarm);
        }
    }
    kv!(body, "energy_checked", sim.energy_checked);
    kv!(body, "down_until", sim.down_until);

    // Admission controller: per-app bucket state in BTreeMap order, so
    // the rendering is deterministic. The escaped app label goes last.
    match &sim.admission {
        None => kv!(body, "adm", "none"),
        Some(ctl) => {
            kv!(body, "adm", ctl.app_count());
            for (app, st) in ctl.apps() {
                kv!(
                    body,
                    "aa",
                    st.perceptible.tokens,
                    st.perceptible.last_refill,
                    st.deferrable.tokens,
                    st.deferrable.last_refill,
                    st.defer_horizon,
                    st.rejections,
                    st.demoted,
                    Esc(app)
                );
            }
        }
    }

    // Degradation governor runtime state (config is captured above).
    match &sim.governor {
        None => kv!(body, "gov", "none"),
        Some(g) => kv!(
            body,
            "gov",
            g.tier.name(),
            g.tier_since,
            g.in_saver,
            g.in_critical
        ),
    }

    // Registration-storm bursts (needed so pending StormRegister events
    // can rebuild their alarms after restore).
    kv!(body, "storm_bursts", sim.storm.len());
    for b in &sim.storm {
        kv!(
            body,
            "sb",
            b.start,
            b.count,
            b.every,
            b.period,
            b.perceptible,
            b.task,
            b.window_milli,
            b.grace_milli,
            Esc(&b.app)
        );
    }

    // Overload counters. Time-in-tier and the final tier are derived
    // from the governor at report time, so only counters persist.
    let ov = &sim.overload;
    kv!(
        body,
        "ov",
        ov.storm_registrations,
        ov.admitted,
        ov.deferred,
        ov.rejected,
        ov.shed,
        ov.demotions,
        ov.tier_changes
    );

    // Observability layer. Help text and the span-ring capacity are not
    // captured: `ObsLayer::new` re-creates both identically on restore,
    // so only the mutable state needs to round-trip.
    let obs = &sim.obs;
    kv!(body, "obs_next_seq", obs.spans.next_seq());
    kv!(body, "obs_span_dropped", obs.spans.dropped());
    kv!(body, "obs_spans", obs.spans.len());
    for s in obs.spans.iter() {
        kv!(body, "os", s);
    }
    write_registry(body, &obs.metrics);
    kv!(body, "obs_audit_dropped", obs.audit_dropped);
    kv!(body, "obs_audits", obs.audits.len());
    for a in &obs.audits {
        kv!(body, "oa", a);
    }
    kv!(body, "obs_aliases", obs.aliases.len());
    for (raw, ordinal) in &obs.aliases {
        kv!(body, "ol", raw, ordinal);
    }
    kv!(body, "obs_wake", obs.wake_open);

    // Snapshots are kept (the engine holds every scheduled one), so
    // return the growth headroom.
    out.shrink_to_fit();
    Checkpoint {
        captured_at: sim.now,
        policy: sim.manager.policy_name().to_owned(),
        body: out,
    }
}

/// A line-oriented `key=value` parser over a checkpoint body.
struct Parser<'a> {
    src: KvLines<'a>,
    /// Lines in the whole body, the bound on every record count.
    lines: usize,
    /// One shared label per distinct (escaped) app name, as in a live
    /// run, where an app's alarms and deliveries share one `Arc<str>`.
    labels: HashMap<&'a str, Arc<str>>,
}

impl<'a> Parser<'a> {
    fn new(body: &'a str) -> Self {
        // What `str::lines` yields: one line per `\n`, plus an
        // unterminated tail. (A `u32` tally per chunk vectorizes.)
        let newlines: usize = body
            .as_bytes()
            .chunks(1 << 20)
            .map(|c| c.iter().fold(0u32, |n, &b| n + u32::from(b == b'\n')) as usize)
            .sum();
        Parser {
            src: KvLines::new(body),
            lines: newlines + usize::from(!body.is_empty() && !body.ends_with('\n')),
            labels: HashMap::new(),
        }
    }

    fn err(&self, message: impl Into<String>) -> CheckpointError {
        CheckpointError::Malformed {
            line: self.src.line_no(),
            message: message.into(),
        }
    }

    fn kv(&mut self, key: &str) -> Result<&'a str, CheckpointError> {
        self.src.kv(key).map_err(|m| self.err(m))
    }

    fn u64_of(&self, s: &str) -> Result<u64, CheckpointError> {
        s.parse().map_err(|_| self.err(format!("invalid integer `{s}`")))
    }

    fn u32_of(&self, s: &str) -> Result<u32, CheckpointError> {
        s.parse().map_err(|_| self.err(format!("invalid integer `{s}`")))
    }

    fn usize_of(&self, s: &str) -> Result<usize, CheckpointError> {
        s.parse().map_err(|_| self.err(format!("invalid integer `{s}`")))
    }

    fn bool_of(&self, s: &str) -> Result<bool, CheckpointError> {
        match s {
            "0" => Ok(false),
            "1" => Ok(true),
            _ => Err(self.err(format!("invalid flag `{s}`"))),
        }
    }

    fn f64_of(&self, s: &str) -> Result<f64, CheckpointError> {
        u64::from_str_radix(s, 16)
            .map(f64::from_bits)
            .map_err(|_| self.err(format!("invalid float bits `{s}`")))
    }

    fn time(&self, s: &str) -> Result<SimTime, CheckpointError> {
        Ok(SimTime::from_millis(self.u64_of(s)?))
    }

    fn dur(&self, s: &str) -> Result<SimDuration, CheckpointError> {
        Ok(SimDuration::from_millis(self.u64_of(s)?))
    }

    fn opt_time(&self, s: &str) -> Result<Option<SimTime>, CheckpointError> {
        if s == "none" {
            Ok(None)
        } else {
            Ok(Some(self.time(s)?))
        }
    }

    /// Reads a record count. Every record takes at least one line, so a
    /// count larger than the lines left in the body is malformed: no
    /// decoder reserves memory or loops on a count the body cannot back.
    fn count(&mut self, key: &str) -> Result<usize, CheckpointError> {
        let v = self.kv(key)?;
        let n = self.usize_of(v)?;
        self.bounded(n)
    }

    /// `n` if at least `n` lines are left in the body (see [`count`](Self::count)).
    fn bounded(&self, n: usize) -> Result<usize, CheckpointError> {
        let left = self.lines.saturating_sub(self.src.line_no());
        if n > left {
            return Err(self.err(format!("count {n} exceeds the {left} lines left in the body")));
        }
        Ok(n)
    }

    /// The shared label for the escaped app name `raw`.
    fn label(&mut self, raw: &'a str) -> Arc<str> {
        Arc::clone(self.labels.entry(raw).or_insert_with(|| unesc_cow(raw).into()))
    }

    fn kv_time(&mut self, key: &str) -> Result<SimTime, CheckpointError> {
        let v = self.kv(key)?;
        self.time(v)
    }

    fn kv_dur(&mut self, key: &str) -> Result<SimDuration, CheckpointError> {
        let v = self.kv(key)?;
        self.dur(v)
    }

    fn kv_u64(&mut self, key: &str) -> Result<u64, CheckpointError> {
        let v = self.kv(key)?;
        self.u64_of(v)
    }

    fn kv_u32(&mut self, key: &str) -> Result<u32, CheckpointError> {
        let v = self.kv(key)?;
        self.u32_of(v)
    }

    fn kv_bool(&mut self, key: &str) -> Result<bool, CheckpointError> {
        let v = self.kv(key)?;
        self.bool_of(v)
    }

    fn kv_f64(&mut self, key: &str) -> Result<f64, CheckpointError> {
        let v = self.kv(key)?;
        self.f64_of(v)
    }

    fn kv_opt_time(&mut self, key: &str) -> Result<Option<SimTime>, CheckpointError> {
        let v = self.kv(key)?;
        self.opt_time(v)
    }

    /// Splits a comma-separated value into exactly `N` raw fields.
    fn fields<const N: usize>(&self, value: &'a str) -> Result<[&'a str; N], CheckpointError> {
        self.split(value, b',')
    }

    /// Splits a value at the ASCII byte `sep` into exactly `N` raw
    /// fields (an ASCII byte never falls inside a multi-byte char).
    fn split<const N: usize>(
        &self,
        value: &'a str,
        sep: u8,
    ) -> Result<[&'a str; N], CheckpointError> {
        debug_assert!(sep.is_ascii());
        let mut out = [""; N];
        let (mut got, mut start) = (0, 0);
        for (i, &b) in value.as_bytes().iter().enumerate() {
            if b == sep {
                if got < N {
                    out[got] = &value[start..i];
                }
                got += 1;
                start = i + 1;
            }
        }
        if got < N {
            out[got] = &value[start..];
        }
        got += 1;
        if got != N {
            return Err(self.err(format!("expected {N} fields, got {got}")));
        }
        Ok(out)
    }

    fn alarm(&mut self) -> Result<Alarm, CheckpointError> {
        let v = self.kv("alarm")?;
        let f = self.fields::<12>(v)?;
        let repeat = self.repeat_of(f[5])?;
        let kind = self.kind_of(f[6])?;
        Ok(Alarm::restore(
            AlarmId::from_raw(self.u64_of(f[0])?),
            self.label(f[1]),
            self.time(f[2])?,
            self.dur(f[3])?,
            self.dur(f[4])?,
            repeat,
            kind,
            self.hardware_of(f[7])?,
            self.bool_of(f[8])?,
            self.dur(f[9])?,
            self.bool_of(f[10])?,
            self.u32_of(f[11])?,
        ))
    }

    fn repeat_of(&self, s: &str) -> Result<Repeat, CheckpointError> {
        if s == "o" {
            return Ok(Repeat::OneShot);
        }
        let (tag, ms) = s
            .split_once(':')
            .ok_or_else(|| self.err(format!("invalid repeat `{s}`")))?;
        let interval = self.dur(ms)?;
        match tag {
            "s" => Ok(Repeat::Static(interval)),
            "d" => Ok(Repeat::Dynamic(interval)),
            _ => Err(self.err(format!("invalid repeat `{s}`"))),
        }
    }

    fn kind_of(&self, s: &str) -> Result<AlarmKind, CheckpointError> {
        match s {
            "w" => Ok(AlarmKind::Wakeup),
            "n" => Ok(AlarmKind::NonWakeup),
            _ => Err(self.err(format!("invalid alarm kind `{s}`"))),
        }
    }

    fn hardware_of(&self, s: &str) -> Result<HardwareSet, CheckpointError> {
        let bits: u16 = s
            .parse()
            .map_err(|_| self.err(format!("invalid hardware bits `{s}`")))?;
        Ok(HardwareSet::from_bits(bits))
    }

    fn discipline_of(&self, s: &str) -> Result<DeliveryDiscipline, CheckpointError> {
        let mut it = s.split(':');
        match it.next() {
            Some("window") => Ok(DeliveryDiscipline::Window),
            Some("perc") => Ok(DeliveryDiscipline::PerceptibilityAware),
            Some("quant") => {
                let q = it.next().ok_or_else(|| self.err("quant without quantum"))?;
                Ok(DeliveryDiscipline::Quantized {
                    quantum: self.dur(q)?,
                })
            }
            Some("esc") => {
                let mut next =
                    || it.next().ok_or_else(|| self.err("esc needs 3 parameters"));
                let base = self.dur(next()?)?;
                let max_quantum = self.dur(next()?)?;
                let windows_per_level = self.u32_of(next()?)?;
                Ok(DeliveryDiscipline::Escalating {
                    base,
                    max_quantum,
                    windows_per_level,
                })
            }
            _ => Err(self.err(format!("invalid discipline `{s}`"))),
        }
    }

    fn queue(&mut self, key: &str) -> Result<AlarmQueue, CheckpointError> {
        let entries = self.count(key)?;
        let mut queue = AlarmQueue::new();
        queue.reserve(entries);
        for _ in 0..entries {
            let v = self.kv("entry")?;
            let f = self.fields::<2>(v)?;
            let discipline = self.discipline_of(f[0])?;
            let alarms = self.usize_of(f[1])?;
            if alarms == 0 {
                return Err(self.err("entry with zero alarms"));
            }
            let mut entry = QueueEntry::new(self.alarm()?, discipline);
            for _ in 1..alarms {
                entry.push(self.alarm()?);
            }
            // Entries were recorded in queue order and `insert_entry`
            // appends after equal delivery times, so order is preserved.
            queue.insert_entry(entry);
        }
        Ok(queue)
    }

    fn event_kind_of(&self, s: &str) -> Result<EventKind, CheckpointError> {
        let mut it = s.split(':');
        let kind = match it.next() {
            Some("rtc") => EventKind::RtcAlarm,
            Some("wake") => EventKind::WakeComplete,
            Some("taskend") => EventKind::TaskEnd,
            Some("trysleep") => EventKind::TrySleep,
            Some("nonwakeup") => EventKind::NonWakeupCheck,
            Some("extwake") => EventKind::ExternalWake,
            Some("watchdog") => EventKind::WatchdogCheck,
            Some("boot") => EventKind::BootComplete,
            Some("checkpoint") => EventKind::Checkpoint,
            Some("rereg") => {
                let id = it.next().ok_or_else(|| self.err("rereg without id"))?;
                EventKind::Reregister {
                    id: AlarmId::from_raw(self.u64_of(id)?),
                }
            }
            Some("actretry") => {
                let slot = it.next().ok_or_else(|| self.err("actretry without slot"))?;
                EventKind::ActivationRetry {
                    slot: self.usize_of(slot)?,
                }
            }
            Some("crash") => {
                let ms = it.next().ok_or_else(|| self.err("crash without delay"))?;
                let app = it.next().ok_or_else(|| self.err("crash without app"))?;
                EventKind::AppCrash {
                    app: unesc(app),
                    restart_after: self.dur(ms)?,
                }
            }
            Some("apprestart") => {
                let app = it.next().ok_or_else(|| self.err("apprestart without app"))?;
                EventKind::AppRestart { app: unesc(app) }
            }
            Some("reboot") => {
                let ms = it.next().ok_or_else(|| self.err("reboot without outage"))?;
                EventKind::Reboot {
                    outage: self.dur(ms)?,
                }
            }
            Some("govtick") => EventKind::GovernorTick,
            Some("storm") => {
                let burst = it.next().ok_or_else(|| self.err("storm without burst"))?;
                let k = it.next().ok_or_else(|| self.err("storm without index"))?;
                EventKind::StormRegister {
                    burst: self.usize_of(burst)?,
                    k: self.u32_of(k)?,
                }
            }
            _ => return Err(self.err(format!("invalid event kind `{s}`"))),
        };
        Ok(kind)
    }

    fn intervention_kind_of(&self, s: &str) -> Result<InterventionKind, CheckpointError> {
        let mut it = s.split(':');
        let kind = match it.next() {
            Some("quarantine") => InterventionKind::Quarantine,
            Some("forced") => {
                let ms = it.next().ok_or_else(|| self.err("forced without hold"))?;
                InterventionKind::ForcedRelease {
                    held: self.dur(ms)?,
                }
            }
            Some("actretry") => {
                let n = it.next().ok_or_else(|| self.err("actretry without attempt"))?;
                InterventionKind::ActivationRetry {
                    attempt: self.u32_of(n)?,
                }
            }
            Some("dropped") => {
                let ms = it.next().ok_or_else(|| self.err("dropped without delay"))?;
                InterventionKind::DroppedFireRetry {
                    delay: self.dur(ms)?,
                }
            }
            Some("recovery") => {
                let ms = it.next().ok_or_else(|| self.err("recovery without span"))?;
                InterventionKind::Recovery {
                    quarantined_for: self.dur(ms)?,
                }
            }
            Some("crash") => {
                let n = it.next().ok_or_else(|| self.err("crash without count"))?;
                InterventionKind::AppCrash {
                    cancelled: self.usize_of(n)?,
                }
            }
            Some("restart") => {
                let n = it.next().ok_or_else(|| self.err("restart without count"))?;
                InterventionKind::AppRestart {
                    reregistered: self.usize_of(n)?,
                }
            }
            Some("reboot") => {
                let ms = it.next().ok_or_else(|| self.err("reboot without outage"))?;
                InterventionKind::Reboot {
                    outage: self.dur(ms)?,
                }
            }
            Some("catchup") => {
                let n = it.next().ok_or_else(|| self.err("catchup without count"))?;
                let ms = it.next().ok_or_else(|| self.err("catchup without delay"))?;
                InterventionKind::BootCatchUp {
                    caught_up: self.usize_of(n)?,
                    worst_delay: self.dur(ms)?,
                }
            }
            _ => return Err(self.err(format!("invalid intervention kind `{s}`"))),
        };
        Ok(kind)
    }

    fn violation_of(&self, s: &str) -> Result<InvariantViolation, CheckpointError> {
        let mut it = s.split(':');
        let v = match it.next() {
            Some("miss") => {
                let mut next =
                    || it.next().ok_or_else(|| self.err("miss needs 4 parameters"));
                let delivered_at = self.time(next()?)?;
                let window_end = self.time(next()?)?;
                let allowed_slack = self.dur(next()?)?;
                let label = unesc(next()?);
                InvariantViolation::PerceptibleWindowMiss {
                    label,
                    delivered_at,
                    window_end,
                    allowed_slack,
                }
            }
            Some("order") => {
                let mut next =
                    || it.next().ok_or_else(|| self.err("order needs 2 parameters"));
                InvariantViolation::QueueOrderBroken {
                    earlier: self.time(next()?)?,
                    later: self.time(next()?)?,
                }
            }
            Some("energy") => {
                let mut next =
                    || it.next().ok_or_else(|| self.err("energy needs 2 parameters"));
                InvariantViolation::EnergyNotConserved {
                    ledger_mj: self.f64_of(next()?)?,
                    meter_mj: self.f64_of(next()?)?,
                }
            }
            Some("waveform") => {
                let mut next =
                    || it.next().ok_or_else(|| self.err("waveform needs 2 parameters"));
                InvariantViolation::WaveformMismatch {
                    trace_mj: self.f64_of(next()?)?,
                    meter_mj: self.f64_of(next()?)?,
                }
            }
            _ => return Err(self.err(format!("invalid violation `{s}`"))),
        };
        Ok(v)
    }
}

/// Rebuilds a [`Simulation`] from `checkpoint` under `policy`.
///
/// Policies are stateless, so the caller supplies one; it is validated
/// by name against the policy recorded at capture time. See
/// [`Simulation::restore`] for the public entry point.
pub(crate) fn restore(
    policy: Box<dyn AlignmentPolicy>,
    checkpoint: &Checkpoint,
) -> Result<Simulation, CheckpointError> {
    if policy.name() != checkpoint.policy {
        return Err(CheckpointError::PolicyMismatch {
            recorded: checkpoint.policy.clone(),
            provided: policy.name().to_owned(),
        });
    }
    let mut p = Parser::new(&checkpoint.body);

    let now = p.kv_time("at")?;
    let _policy_name = p.kv("policy")?;
    let max_id = p.kv_u64("max_alarm_id")?;
    if max_id == u64::MAX {
        return Err(p.err("alarm id watermark leaves no fresh id"));
    }
    AlarmId::reserve_through(max_id);

    // Config.
    let duration = p.kv_dur("duration")?;
    let record_waveform = p.kv_bool("record_waveform")?;
    let invariants = match p.kv("invariants")? {
        "off" => InvariantMode::Off,
        "report" => InvariantMode::Report,
        "strict" => InvariantMode::Strict,
        other => return Err(p.err(format!("invalid invariant mode `{other}`"))),
    };
    let checkpoint_every = {
        let v = p.kv("checkpoint_every")?;
        if v == "none" {
            None
        } else {
            Some(p.dur(v)?)
        }
    };
    let audit_capacity = {
        let v = p.kv("audit_capacity")?;
        p.usize_of(v)?
    };
    // Optional: only non-default captures carry it.
    let span_capacity = match p.src.opt_kv("span_capacity") {
        Some(v) => p.usize_of(v)?,
        None => SPAN_CAPACITY,
    };
    // Optional: only captures below the default level carry it.
    let obs = match p.src.opt_kv("obs") {
        None => ObsLevel::Spans,
        Some("0") => ObsLevel::Off,
        Some("metrics") => ObsLevel::Metrics,
        Some(other) => return Err(p.err(format!("invalid observability level `{other}`"))),
    };
    let n = p.count("external_wakes")?;
    let mut external_wakes = Vec::with_capacity(n);
    for _ in 0..n {
        external_wakes.push(p.kv_time("xw")?);
    }
    let online_watchdog = {
        let v = p.kv("watchdog")?;
        if v == "none" {
            None
        } else {
            let f = p.fields::<4>(v)?;
            Some(OnlineWatchdogConfig {
                policy: WatchdogPolicy {
                    max_task_hold: p.dur(f[0])?,
                    max_duty_cycle: p.f64_of(f[1])?,
                },
                quarantine_after: p.u32_of(f[2])?,
                probation: p.u32_of(f[3])?,
            })
        }
    };
    let admission_cfg = {
        let v = p.kv("admission")?;
        if v == "none" {
            None
        } else {
            let f = p.fields::<6>(v)?;
            Some(AdmissionConfig {
                perceptible: ClassQuota {
                    replenish_every: p.dur(f[0])?,
                    burst: p.u32_of(f[1])?,
                },
                deferrable: ClassQuota {
                    replenish_every: p.dur(f[2])?,
                    burst: p.u32_of(f[3])?,
                },
                defer_limit: p.u32_of(f[4])?,
                demote_after: p.u32_of(f[5])?,
            })
        }
    };
    let degradation_cfg = {
        let v = p.kv("degradation")?;
        if v == "none" {
            None
        } else {
            let f = p.fields::<9>(v)?;
            Some(GovernorConfig {
                capacity_mj: p.f64_of(f[0])?,
                check_every: p.dur(f[1])?,
                saver_enter_milli: p.u32_of(f[2])?,
                saver_exit_milli: p.u32_of(f[3])?,
                critical_enter_milli: p.u32_of(f[4])?,
                critical_exit_milli: p.u32_of(f[5])?,
                saver_stretch_milli: p.u32_of(f[6])?,
                critical_stretch_milli: p.u32_of(f[7])?,
                shed_in_critical: p.bool_of(f[8])?,
            })
        }
    };

    // Power model: start from the calibrated default, then overwrite
    // every field from the recorded values.
    let mut power = PowerModel::nexus5();
    power.sleep_power_mw = p.kv_f64("sleep_mw")?;
    power.awake_base_power_mw = p.kv_f64("awake_mw")?;
    power.wake_transition_energy_mj = p.kv_f64("transition_mj")?;
    power.wake_latency = p.kv_dur("wake_latency_ms")?;
    power.sleep_linger = p.kv_dur("sleep_linger_ms")?;
    for c in HardwareComponent::ALL {
        let v = p.kv("component")?;
        let f = p.fields::<2>(v)?;
        power.set_component(
            c,
            ComponentPower {
                activation_energy_mj: p.f64_of(f[0])?,
                active_power_mw: p.f64_of(f[1])?,
            },
        );
    }

    let config = SimConfig {
        duration,
        power: power.clone(),
        external_wakes,
        record_waveform,
        online_watchdog,
        invariants,
        checkpoint_every,
        audit_capacity,
        span_capacity,
        admission: admission_cfg,
        degradation: degradation_cfg,
        obs,
    };

    // Alarm manager.
    let mgr_clock = p.kv_time("mgr_clock")?;
    let mgr_stretch = p.kv_u32("mgr_stretch")?;
    let wakeup = p.queue("wakeup_entries")?;
    let non_wakeup = p.queue("non_wakeup_entries")?;
    let mut manager = AlarmManager::restore(policy, wakeup, non_wakeup, mgr_clock);
    manager.restore_grace_stretch(mgr_stretch);
    manager.set_audit_enabled(obs == ObsLevel::Spans);

    // Device.
    let state = {
        let v = p.kv("dev_state")?;
        match v.split_once(':') {
            None if v == "asleep" => DevicePowerState::Asleep,
            None if v == "awake" => DevicePowerState::Awake,
            Some(("waking", ms)) => DevicePowerState::Waking {
                until: p.time(ms)?,
            },
            _ => return Err(p.err(format!("invalid device state `{v}`"))),
        }
    };
    let meter = {
        let v = p.kv("dev_meter")?;
        let f = p.fields::<3>(v)?;
        let (sleep_mj, transition_mj, awake_mj) =
            (p.f64_of(f[0])?, p.f64_of(f[1])?, p.f64_of(f[2])?);
        let v = p.kv("dev_meter_components")?;
        let f = p.fields::<N_COMPONENTS>(v)?;
        let mut component_mj = [0.0; N_COMPONENTS];
        for (slot, raw) in component_mj.iter_mut().zip(&f) {
            *slot = p.f64_of(raw)?;
        }
        EnergyMeter::from_parts(sleep_mj, transition_mj, awake_mj, component_mj)
    };
    let locks = {
        let v = p.kv("dev_locks_expiry")?;
        let f = p.fields::<N_COMPONENTS>(v)?;
        let mut expiry = [None; N_COMPONENTS];
        for (slot, raw) in expiry.iter_mut().zip(&f) {
            *slot = p.opt_time(raw)?;
        }
        let v = p.kv("dev_locks_activations")?;
        let f = p.fields::<N_COMPONENTS>(v)?;
        let mut activations = [0u64; N_COMPONENTS];
        for (slot, raw) in activations.iter_mut().zip(&f) {
            *slot = p.u64_of(raw)?;
        }
        WakeLockTable::from_parts(expiry, activations)
    };
    let dev_clock = p.kv_time("dev_clock")?;
    let cpu_busy_until = p.kv_time("dev_cpu_busy")?;
    let idle_since = p.kv_opt_time("dev_idle_since")?;
    let wake_count = p.kv_u64("dev_wake_count")?;
    let awake_time = p.kv_dur("dev_awake_time")?;
    let monitor_trace = {
        let v = p.kv("dev_monitor")?;
        match v {
            "none" => None,
            "present" => {
                let n = p.count("levels")?;
                let mut levels = Vec::with_capacity(n);
                for _ in 0..n {
                    let v = p.kv("lv")?;
                    let f = p.fields::<2>(v)?;
                    levels.push((p.time(f[0])?, p.f64_of(f[1])?));
                }
                let n = p.count("impulses")?;
                let mut impulses = Vec::with_capacity(n);
                for _ in 0..n {
                    let v = p.kv("im")?;
                    let f = p.fields::<2>(v)?;
                    impulses.push((p.time(f[0])?, p.f64_of(f[1])?));
                }
                Some(PowerTrace::from_parts(levels, impulses))
            }
            _ => return Err(p.err(format!("invalid monitor flag `{v}`"))),
        }
    };
    let device = Device::restore(
        power,
        DeviceSnapshot {
            state,
            meter,
            locks,
            clock: dev_clock,
            cpu_busy_until,
            idle_since,
            wake_count,
            awake_time,
            monitor: monitor_trace,
        },
    );

    // Event queue.
    let next_seq = p.kv_u64("next_seq")?;
    let n = p.count("events")?;
    let mut events = Vec::with_capacity(n);
    for _ in 0..n {
        let v = p.kv("ev")?;
        let f = p.fields::<3>(v)?;
        events.push(Event {
            time: p.time(f[0])?,
            seq: p.u64_of(f[1])?,
            kind: p.event_kind_of(f[2])?,
        });
    }
    let events = EventQueue::restore(events, next_seq);
    let n = p.count("armed")?;
    let mut armed = crate::engine::ArmedSet::default();
    armed.reserve(n);
    for _ in 0..n {
        let v = p.kv("arm")?;
        let f = p.fields::<2>(v)?;
        let tag: u8 = f[0]
            .parse()
            .map_err(|_| p.err(format!("invalid armed tag `{}`", f[0])))?;
        armed.insert((tag, p.u64_of(f[1])?));
    }

    // Trace.
    let mut trace = Trace::new();
    let n = p.count("deliveries")?;
    trace.deliveries.reserve_exact(n);
    for _ in 0..n {
        let v = p.kv("d")?;
        let f = p.fields::<12>(v)?;
        let repeat_ms = p.u64_of(f[6])?;
        trace.record_delivery(DeliveryRecord {
            alarm_id: AlarmId::from_raw(p.u64_of(f[0])?),
            label: p.label(f[1]),
            nominal: p.time(f[2])?,
            window_end: p.time(f[3])?,
            grace_end: p.time(f[4])?,
            delivered_at: p.time(f[5])?,
            repeat_interval: if repeat_ms == 0 {
                None
            } else {
                Some(SimDuration::from_millis(repeat_ms))
            },
            hardware: p.hardware_of(f[7])?,
            perceptible: p.bool_of(f[8])?,
            kind: p.kind_of(f[9])?,
            entry_size: p.usize_of(f[10])?,
            task_duration: p.dur(f[11])?,
        });
    }
    let n = p.count("wakeups")?;
    for _ in 0..n {
        let t = p.kv_time("wk")?;
        trace.record_wakeup(t);
    }
    trace.entry_deliveries = p.kv_u64("entry_deliveries")?;
    let n = p.count("interventions")?;
    for _ in 0..n {
        let v = p.kv("iv")?;
        let f = p.fields::<4>(v)?;
        trace.record_intervention(InterventionRecord {
            at: p.time(f[0])?,
            app: unesc(f[1]),
            overhead_mj: p.f64_of(f[2])?,
            kind: p.intervention_kind_of(f[3])?,
        });
    }

    // Attribution ledger.
    let n = p.count("ledger_active")?;
    let mut active = Vec::with_capacity(n);
    for _ in 0..n {
        let v = p.kv("la")?;
        let f = p.fields::<3>(v)?;
        active.push(ActiveTask {
            app: p.label(f[0]),
            hardware: p.hardware_of(f[1])?,
            until: p.time(f[2])?,
        });
    }
    let n = p.count("ledger_apps")?;
    let mut per_app = BTreeMap::new();
    for _ in 0..n {
        let v = p.kv("lp")?;
        let f = p.fields::<2>(v)?;
        per_app.insert(unesc(f[0]), p.f64_of(f[1])?);
    }
    let n = p.count("ledger_interventions")?;
    let mut ledger_interventions = BTreeMap::new();
    for _ in 0..n {
        let v = p.kv("li")?;
        let f = p.fields::<2>(v)?;
        ledger_interventions.insert(unesc(f[0]), p.u64_of(f[1])?);
    }
    let ledger = AttributionLedger {
        model: config.power.clone(),
        active,
        per_app,
        interventions: ledger_interventions,
        overhead_mj: p.kv_f64("ledger_overhead")?,
        pending_transition_mj: p.kv_f64("ledger_pending")?,
        last: p.kv_time("ledger_last")?,
        awake: p.kv_bool("ledger_awake")?,
    };

    // Fault runtime.
    let faults = match p.kv("faults")? {
        "none" => None,
        "present" => {
            let mut plan = FaultPlan::new(p.kv_u64("f_seed")?);
            plan.rtc_jitter = p.kv_dur("f_jitter")?;
            plan.drop_fire_p = p.kv_f64("f_drop_p")?;
            plan.drop_retry = p.kv_dur("f_drop_retry")?;
            plan.drop_cap = p.kv_u32("f_drop_cap")?;
            plan.overrun_p = p.kv_f64("f_overrun_p")?;
            plan.overrun = p.kv_dur("f_overrun")?;
            plan.leak_p = p.kv_f64("f_leak_p")?;
            plan.leak = p.kv_dur("f_leak")?;
            plan.activation_failure_p = p.kv_f64("f_act_p")?;
            plan.backoff_base = p.kv_dur("f_backoff_base")?;
            plan.backoff_cap = p.kv_dur("f_backoff_cap")?;
            plan.max_attempts = p.kv_u32("f_max_attempts")?;
            let n = p.count("f_crashes")?;
            for _ in 0..n {
                let v = p.kv("fc")?;
                let f = p.fields::<3>(v)?;
                plan.crashes.push(CrashSpec {
                    at: p.time(f[0])?,
                    restart_after: p.dur(f[1])?,
                    app: unesc(f[2]),
                });
            }
            let n = p.count("f_storms")?;
            for _ in 0..n {
                let v = p.kv("fs")?;
                let f = p.fields::<3>(v)?;
                plan.storms.push(StormSpec {
                    start: p.time(f[0])?,
                    duration: p.dur(f[1])?,
                    mean_interval: p.dur(f[2])?,
                });
            }
            let rng_state = {
                let v = p.kv("f_rng")?;
                u64::from_str_radix(v, 16)
                    .map_err(|_| p.err(format!("invalid rng state `{v}`")))?
            };
            let dropping = {
                let v = p.kv("f_dropping")?;
                if v == "none" {
                    None
                } else {
                    let f = p.fields::<2>(v)?;
                    Some((p.time(f[0])?, p.u32_of(f[1])?))
                }
            };
            Some(FaultState::restore(plan, rng_state, dropping))
        }
        other => return Err(p.err(format!("invalid faults flag `{other}`"))),
    };

    // Invariant monitor.
    let monitor = match p.kv("monitor")? {
        "none" => None,
        "present" => {
            let slack = p.kv_dur("m_slack")?;
            let panic_on_violation = p.kv_bool("m_panic")?;
            let window_misses = p.kv_u64("m_misses")?;
            let n = p.count("m_violations")?;
            let mut violations = Vec::with_capacity(n);
            for _ in 0..n {
                let v = p.kv("mv")?;
                violations.push(p.violation_of(v)?);
            }
            Some(InvariantMonitor {
                slack,
                panic_on_violation,
                violations,
                window_misses,
            })
        }
        other => return Err(p.err(format!("invalid monitor flag `{other}`"))),
    };

    // Watchdog runtime state.
    let n = p.count("holds")?;
    let mut holds = Vec::with_capacity(n);
    for _ in 0..n {
        let v = p.kv("h")?;
        let f = p.fields::<4>(v)?;
        holds.push(TaskHold {
            started: p.time(f[0])?,
            until: p.time(f[1])?,
            hardware: p.hardware_of(f[2])?,
            app: p.label(f[3]),
        });
    }
    let n = p.count("offenses")?;
    let mut offenses = BTreeMap::new();
    for _ in 0..n {
        let v = p.kv("of")?;
        let f = p.fields::<2>(v)?;
        offenses.insert(unesc(f[1]), p.u32_of(f[0])?);
    }
    let n = p.count("quarantined")?;
    let mut quarantined = BTreeMap::new();
    for _ in 0..n {
        let v = p.kv("qa")?;
        let f = p.fields::<3>(v)?;
        quarantined.insert(unesc(f[2]), (p.time(f[0])?, p.u32_of(f[1])?));
    }
    let n = p.count("retries")?;
    let mut activation_retries = Vec::with_capacity(n);
    for _ in 0..n {
        let v = p.kv("rt")?;
        let f = p.fields::<6>(v)?;
        activation_retries.push(RetrySlot {
            until: p.time(f[0])?,
            attempt: p.u32_of(f[1])?,
            done: p.bool_of(f[2])?,
            overhead_mj: p.f64_of(f[3])?,
            hardware: p.hardware_of(f[4])?,
            app: p.label(f[5]),
        });
    }
    let n = p.count("stash_apps")?;
    let mut crash_stash = BTreeMap::new();
    for _ in 0..n {
        let v = p.kv("stash")?;
        let f = p.fields::<2>(v)?;
        let count = p.usize_of(f[0])?;
        let count = p.bounded(count)?;
        let app = unesc(f[1]);
        let mut alarms = Vec::with_capacity(count);
        for _ in 0..count {
            alarms.push(p.alarm()?);
        }
        crash_stash.insert(app, alarms);
    }
    let energy_checked = p.kv_bool("energy_checked")?;
    let down_until = p.kv_opt_time("down_until")?;
    let watchdog = config.online_watchdog;

    // Admission controller runtime state.
    let admission = {
        let v = p.kv("adm")?;
        if v == "none" {
            None
        } else {
            let cfg = config
                .admission
                .ok_or_else(|| p.err("admission state without admission config"))?;
            let n = p.usize_of(v)?;
            let n = p.bounded(n)?;
            let mut apps = Vec::with_capacity(n);
            for _ in 0..n {
                let v = p.kv("aa")?;
                let f = p.fields::<8>(v)?;
                apps.push((
                    unesc(f[7]),
                    AppAdmission {
                        perceptible: TokenBucket {
                            tokens: p.u32_of(f[0])?,
                            last_refill: p.time(f[1])?,
                        },
                        deferrable: TokenBucket {
                            tokens: p.u32_of(f[2])?,
                            last_refill: p.time(f[3])?,
                        },
                        defer_horizon: p.time(f[4])?,
                        rejections: p.u32_of(f[5])?,
                        demoted: p.bool_of(f[6])?,
                    },
                ));
            }
            Some(AdmissionController::restore(cfg, apps))
        }
    };

    // Degradation governor runtime state.
    let governor = {
        let v = p.kv("gov")?;
        if v == "none" {
            None
        } else {
            let cfg = config
                .degradation
                .ok_or_else(|| p.err("governor state without degradation config"))?;
            let f = p.fields::<4>(v)?;
            let tier = match f[0] {
                "normal" => DegradationTier::Normal,
                "saver" => DegradationTier::Saver,
                "critical" => DegradationTier::Critical,
                other => return Err(p.err(format!("invalid tier `{other}`"))),
            };
            Some(DegradationGovernor::restore(
                cfg,
                tier,
                p.time(f[1])?,
                p.dur(f[2])?,
                p.dur(f[3])?,
            ))
        }
    };

    // Storm bursts.
    let n = p.count("storm_bursts")?;
    let mut storm = Vec::with_capacity(n);
    for _ in 0..n {
        let v = p.kv("sb")?;
        let f = p.fields::<9>(v)?;
        storm.push(StormBurst {
            start: p.time(f[0])?,
            count: p.u32_of(f[1])?,
            every: p.dur(f[2])?,
            period: p.dur(f[3])?,
            perceptible: p.bool_of(f[4])?,
            task: p.dur(f[5])?,
            window_milli: p.u32_of(f[6])?,
            grace_milli: p.u32_of(f[7])?,
            app: unesc(f[8]),
        });
    }

    // Overload counters.
    let overload = {
        let v = p.kv("ov")?;
        let f = p.fields::<7>(v)?;
        OverloadStats {
            storm_registrations: p.u64_of(f[0])?,
            admitted: p.u64_of(f[1])?,
            deferred: p.u64_of(f[2])?,
            rejected: p.u64_of(f[3])?,
            shed: p.u64_of(f[4])?,
            demotions: p.u64_of(f[5])?,
            tier_changes: p.u64_of(f[6])?,
            ..OverloadStats::default()
        }
    };

    // Observability layer: re-register the families (help text, zeroed
    // counters, histogram bounds), then overwrite with the captured
    // state — the union is byte-identical to the straight-through run.
    // An `Off` capture recorded an empty layer; rebuild it empty too.
    let mut obs = ObsLayer::new(
        &checkpoint.policy,
        config.obs,
        config.audit_capacity,
        config.span_capacity,
    );
    let obs_next_seq = p.kv_u64("obs_next_seq")?;
    let obs_span_dropped = p.kv_u64("obs_span_dropped")?;
    let n = p.count("obs_spans")?;
    let mut spans = Vec::with_capacity(n);
    for _ in 0..n {
        let v = p.kv("os")?;
        let fields = v.split(',').count();
        if fields < 5 {
            return Err(p.err(format!("span needs at least 5 fields, got {fields}")));
        }
        let mut parts = v.split(',');
        let [seq, kind, start_ms, end_ms, nattrs]: [&str; 5] =
            std::array::from_fn(|_| parts.next().unwrap_or_default());
        let nattrs = p.usize_of(nattrs)?;
        if nattrs.checked_mul(2).and_then(|f| f.checked_add(5)) != Some(fields) {
            return Err(p.err(format!("span with {nattrs} attrs has {fields} fields")));
        }
        let kind =
            SpanKind::parse(kind).ok_or_else(|| p.err(format!("invalid span kind `{kind}`")))?;
        let mut attrs = Vec::with_capacity(nattrs);
        while let (Some(k), Some(v)) = (parts.next(), parts.next()) {
            attrs.push((unesc(k).into(), unesc(v).into()));
        }
        spans.push(Span {
            seq: p.u64_of(seq)?,
            kind,
            start_ms: p.u64_of(start_ms)?,
            end_ms: p.u64_of(end_ms)?,
            attrs,
        });
    }
    obs.spans =
        SpanCollector::from_parts(config.span_capacity, obs_next_seq, obs_span_dropped, spans);
    read_registry(&mut p.src, &mut obs.metrics).map_err(|m| p.err(m))?;
    obs.audit_dropped = p.kv_u64("obs_audit_dropped")?;
    let n = p.count("obs_audits")?;
    for _ in 0..n {
        let v = p.kv("oa")?;
        let f = p.fields::<7>(v)?;
        let candidates = if f[6] == "-" {
            Vec::new()
        } else {
            let mut out = Vec::new();
            for c in f[6].split(';') {
                let cf: [&str; 5] = p.split(c, b'.')?;
                let time = match cf[2] {
                    "h" => TimeSimilarity::High,
                    "m" => TimeSimilarity::Medium,
                    "l" => TimeSimilarity::Low,
                    other => return Err(p.err(format!("invalid time similarity `{other}`"))),
                };
                let hw_rank = if cf[3] == "-" {
                    None
                } else {
                    Some(cf[3].parse::<u8>().map_err(|_| {
                        p.err(format!("invalid hardware rank `{}`", cf[3]))
                    })?)
                };
                let verdict = match cf[4] {
                    "w" => CandidateVerdict::Won,
                    "o" => CandidateVerdict::Outranked,
                    "n" => CandidateVerdict::NotApplicable,
                    "c" => CandidateVerdict::PastCutoff,
                    other => return Err(p.err(format!("invalid verdict `{other}`"))),
                };
                out.push(CandidateAudit {
                    index: p.usize_of(cf[0])?,
                    delivery_time: p.time(cf[1])?,
                    time,
                    hw_rank,
                    preferability: hw_rank.map(|r| Preferability::from_ranks(r, time)),
                    verdict,
                });
            }
            out
        };
        let placement = if f[4] == "n" {
            Placement::NewEntry
        } else if let Some(idx) = f[4].strip_prefix('e') {
            Placement::Existing(p.usize_of(idx)?)
        } else {
            return Err(p.err(format!("invalid placement `{}`", f[4])));
        };
        obs.audits.push_back(PlacementAudit {
            at: p.time(f[0])?,
            alarm_id: AlarmId::from_raw(p.u64_of(f[1])?),
            app: p.label(f[5]),
            nominal: p.time(f[2])?,
            perceptible: p.bool_of(f[3])?,
            placement,
            candidates,
        });
    }
    let n = p.count("obs_aliases")?;
    for _ in 0..n {
        let v = p.kv("ol")?;
        let f = p.fields::<2>(v)?;
        obs.aliases.insert(p.u64_of(f[0])?, p.u64_of(f[1])?);
    }
    obs.wake_open = p.kv_opt_time("obs_wake")?;

    Ok(Simulation {
        manager,
        device,
        events,
        trace,
        ledger,
        config,
        now,
        armed,
        due_buffer: Vec::new(),
        faults,
        monitor,
        watchdog,
        holds,
        offenses,
        quarantined,
        activation_retries,
        crash_stash,
        energy_checked,
        down_until,
        admission,
        governor,
        storm,
        overload,
        checkpoints: Vec::new(),
        trace_lines: TraceLines::default(),
        obs,
        stages: StageProfile::new(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::codec::{esc, f64_hex};

    fn sample() -> Checkpoint {
        Checkpoint {
            captured_at: SimTime::from_secs(90),
            policy: "SIMTY".to_owned(),
            body: "at=90000\npolicy=SIMTY\nrest=payload\n".to_owned(),
        }
    }

    #[test]
    fn envelope_round_trips() {
        let c = sample();
        let restored = Checkpoint::from_bytes(&c.to_bytes()).unwrap();
        assert_eq!(restored, c);
        assert_eq!(restored.captured_at(), SimTime::from_secs(90));
        assert_eq!(restored.policy_name(), "SIMTY");
    }

    #[test]
    fn bit_flip_is_a_checksum_mismatch() {
        let mut bytes = sample().to_bytes();
        let last = bytes.len() - 2;
        bytes[last] ^= 0x40;
        match Checkpoint::from_bytes(&bytes) {
            Err(CheckpointError::ChecksumMismatch { .. }) => {}
            other => panic!("expected checksum mismatch, got {other:?}"),
        }
    }

    #[test]
    fn truncation_is_detected() {
        let bytes = sample().to_bytes();
        match Checkpoint::from_bytes(&bytes[..bytes.len() - 5]) {
            Err(CheckpointError::Truncated { .. }) => {}
            other => panic!("expected truncation, got {other:?}"),
        }
    }

    #[test]
    fn version_skew_is_detected() {
        let text = String::from_utf8(sample().to_bytes()).unwrap();
        let skewed = text.replace("simty-checkpoint/v1", "simty-checkpoint/v9");
        match Checkpoint::from_bytes(skewed.as_bytes()) {
            Err(CheckpointError::VersionSkew { found }) => {
                assert!(found.ends_with("v9"));
            }
            other => panic!("expected version skew, got {other:?}"),
        }
        match Checkpoint::from_bytes(b"not a checkpoint\n") {
            Err(CheckpointError::BadMagic { .. }) => {}
            other => panic!("expected bad magic, got {other:?}"),
        }
    }

    #[test]
    fn escaping_round_trips() {
        for s in ["plain", "with,comma", "col:on", "pct%25", "nl\nline", "%,:%"] {
            assert_eq!(unesc(&esc(s)), s, "round trip of {s:?}");
        }
    }

    #[test]
    fn f64_hex_is_exact() {
        for v in [0.0, -0.0, 1.5, 1.0 / 3.0, f64::MAX, 1e-300] {
            let p = Parser::new("");
            assert_eq!(p.f64_of(&f64_hex(v)).unwrap().to_bits(), v.to_bits());
        }
    }

    /// A capture that copies cached trace lines is byte-identical to one
    /// that encodes the whole trace from an empty cache.
    #[test]
    fn cached_trace_lines_encode_like_a_cold_capture() {
        let mut sim = Simulation::new(
            Box::new(simty_core::policy::SimtyPolicy::new()),
            SimConfig::new()
                .with_duration(SimDuration::from_hours(6))
                .with_checkpoints(SimDuration::from_hours(1)),
        );
        for (label, repeat_s) in [("a,b:c%", 300), ("mail", 600), ("chat", 240)] {
            let alarm = Alarm::builder(label)
                .nominal(SimTime::from_secs(60))
                .repeating_dynamic(SimDuration::from_secs(repeat_s))
                .hardware(HardwareComponent::Wifi.into())
                .task_duration(SimDuration::from_secs(2))
                .build()
                .unwrap();
            sim.register(alarm).unwrap();
        }
        sim.run_until(SimTime::from_secs(3 * 3_600 + 1_800));
        let cached = sim.trace_lines.deliveries.n;
        assert!(cached > 0, "scheduled captures filled the cache");
        assert!(cached < sim.trace.deliveries.len(), "the capture has a tail to encode");
        let warm = capture(&sim);
        sim.trace_lines = TraceLines::default();
        assert_eq!(warm, capture(&sim));
        assert!(warm.body.contains("a%2Cb%3Ac%25"), "labels stay escaped");
    }

    #[test]
    fn store_saves_and_falls_back_past_corruption() {
        let dir = std::env::temp_dir().join(format!(
            "simty-ckpt-test-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = fs::remove_dir_all(&dir);
        let mut store = CheckpointStore::open(&dir).unwrap();
        let good = sample();
        let p0 = store.save(&good).unwrap();
        let p1 = store.save(&good).unwrap();
        assert_ne!(p0, p1);

        // Newest-first: an uncorrupted store loads the latest snapshot.
        let (loaded, skipped) = store.load_latest_good().unwrap();
        assert_eq!(loaded, good);
        assert_eq!(skipped, 0);

        // Corrupt the newest snapshot: the store falls back to the older
        // good one and reports the skip.
        let mut bytes = fs::read(&p1).unwrap();
        let last = bytes.len() - 2;
        bytes[last] ^= 0x01;
        fs::write(&p1, bytes).unwrap();
        let (loaded, skipped) = store.load_latest_good().unwrap();
        assert_eq!(loaded, good);
        assert_eq!(skipped, 1);

        // Corrupt everything: recovery fails loudly.
        fs::write(&p0, b"garbage").unwrap();
        match store.load_latest_good() {
            Err(CheckpointError::NoUsableCheckpoint { skipped, .. }) => {
                assert_eq!(skipped, 2);
            }
            other => panic!("expected no usable checkpoint, got {other:?}"),
        }

        // Reopening resumes the sequence past existing files.
        let mut reopened = CheckpointStore::open(&dir).unwrap();
        let p2 = reopened.save(&good).unwrap();
        assert!(p2.file_name().unwrap().to_str().unwrap().contains("000002"));
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn atomic_write_replaces_whole_file() {
        let dir = std::env::temp_dir().join(format!(
            "simty-ckpt-atomic-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).unwrap();
        let path = dir.join("ckpt-000000");
        let c = sample();
        c.write_atomic(&path).unwrap();
        assert_eq!(Checkpoint::read_from(&path).unwrap(), c);
        // The temp file never survives a successful write.
        assert!(!dir.join("ckpt-000000.tmp").exists());
        let _ = fs::remove_dir_all(&dir);
    }
}
