//! Delivery traces: the ground truth every metric is computed from.
//!
//! Plays the role of the hooks the authors inserted "into the hardware
//! WakeLock APIs, as well as AlarmManager, in the Android framework to log
//! every alarm's time attributes and hardware usage at runtime" (§4.1).

use std::collections::BTreeMap;
use std::fmt;
use std::io::{self, Write};
use std::sync::Arc;

use simty_core::alarm::{Alarm, AlarmId, AlarmKind};
use simty_core::hardware::HardwareSet;
use simty_core::time::{SimDuration, SimTime};

use crate::codec::join;

/// One alarm delivery, with everything needed to score it afterwards.
#[derive(Debug, Clone, PartialEq)]
pub struct DeliveryRecord {
    /// The delivered alarm.
    pub alarm_id: AlarmId,
    /// The alarm's label (app name). Shared with the alarm so recording
    /// a delivery bumps a reference count instead of copying the string.
    pub label: Arc<str>,
    /// The alarm's nominal delivery time for this period.
    pub nominal: SimTime,
    /// End of the window interval for this period.
    pub window_end: SimTime,
    /// End of the grace interval for this period.
    pub grace_end: SimTime,
    /// When the alarm was actually delivered.
    pub delivered_at: SimTime,
    /// The repeating interval, `None` for one-shot alarms.
    pub repeat_interval: Option<SimDuration>,
    /// The hardware the task wakelocked (ground truth, not the policy's
    /// possibly-unknown view).
    pub hardware: HardwareSet,
    /// Ground-truth perceptibility: one-shot or perceptible hardware.
    pub perceptible: bool,
    /// Wakeup or non-wakeup.
    pub kind: AlarmKind,
    /// How many alarms were delivered in the same queue entry.
    pub entry_size: usize,
    /// How long the task held its wakelocks after delivery.
    pub task_duration: SimDuration,
}

impl DeliveryRecord {
    /// Builds a record for `alarm` delivered at `delivered_at` in an entry
    /// of `entry_size` alarms.
    pub fn observe(alarm: &Alarm, delivered_at: SimTime, entry_size: usize) -> Self {
        DeliveryRecord {
            alarm_id: alarm.id(),
            label: alarm.label_arc(),
            nominal: alarm.nominal(),
            window_end: alarm.window_interval().end(),
            grace_end: alarm.grace_interval().end(),
            delivered_at,
            repeat_interval: alarm.repeat().interval(),
            hardware: alarm.hardware(),
            perceptible: alarm.repeat().is_one_shot() || alarm.hardware().is_perceptible(),
            kind: alarm.kind(),
            entry_size,
            task_duration: alarm.task_duration(),
        }
    }

    /// How far beyond the window interval the delivery landed (zero if
    /// inside the window).
    pub fn delay_beyond_window(&self) -> SimDuration {
        self.delivered_at.saturating_since(self.window_end)
    }

    /// The paper's Fig. 4 metric: 0 if delivered within the window,
    /// otherwise the delay beyond the window normalized by the repeating
    /// interval. `None` for one-shot alarms, which have no repeating
    /// interval to normalize by.
    pub fn normalized_delay(&self) -> Option<f64> {
        let interval = self.repeat_interval?;
        Some(self.delay_beyond_window().div_duration_f64(interval))
    }

    /// Whether the delivery stayed within the grace interval.
    pub fn within_grace(&self) -> bool {
        self.delivered_at <= self.grace_end
    }
}

impl fmt::Display for DeliveryRecord {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} {} delivered at {} (nominal {}, window ends {})",
            self.alarm_id, self.label, self.delivered_at, self.nominal, self.window_end
        )
    }
}

/// What a runtime intervention (or injected fault) did. Recorded by the
/// engine's online watchdog and fault layer (see [`crate::fault`]) so
/// resilience metrics can be computed from the trace alone.
#[derive(Debug, Clone, PartialEq)]
pub enum InterventionKind {
    /// The watchdog force-released one app's holds after they exceeded
    /// the hold budget.
    ForcedRelease {
        /// How long the offending hold had lasted when it was cut.
        held: SimDuration,
    },
    /// A transient hardware-activation failure was retried (and this
    /// attempt succeeded).
    ActivationRetry {
        /// Which attempt finally activated the hardware (1 = first retry).
        attempt: u32,
    },
    /// A dropped RTC fire was detected and the wakeup re-armed.
    DroppedFireRetry {
        /// How long after the lost fire the retry was scheduled.
        delay: SimDuration,
    },
    /// The app entered quarantine: its alarms were demoted to
    /// imperceptible/postponable status.
    Quarantine,
    /// The app left quarantine after its probation period of clean
    /// deliveries.
    Recovery {
        /// How long the app spent quarantined — the per-app
        /// time-to-recovery.
        quarantined_for: SimDuration,
    },
    /// A fault-injected app crash cancelled the app's registrations.
    AppCrash {
        /// How many alarms were cancelled.
        cancelled: usize,
    },
    /// The crashed app restarted and re-registered its alarms.
    AppRestart {
        /// How many alarms were re-registered.
        reregistered: usize,
    },
    /// A fault-injected device reboot killed the simulated phone
    /// mid-standby (attributed to the pseudo-app `device`).
    Reboot {
        /// How long the device stayed down.
        outage: SimDuration,
    },
    /// Boot completed after a reboot and the engine caught up on alarms
    /// whose delivery time passed during the outage.
    BootCatchUp {
        /// How many queue entries were already due at boot completion.
        caught_up: usize,
        /// The largest catch-up delay among them: how far past its
        /// scheduled delivery time the most overdue entry was.
        worst_delay: SimDuration,
    },
}

impl fmt::Display for InterventionKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            InterventionKind::ForcedRelease { held } => {
                write!(f, "forced release after a {held} hold")
            }
            InterventionKind::ActivationRetry { attempt } => {
                write!(f, "hardware activation retried (attempt {attempt})")
            }
            InterventionKind::DroppedFireRetry { delay } => {
                write!(f, "dropped RTC fire re-armed after {delay}")
            }
            InterventionKind::Quarantine => write!(f, "quarantined"),
            InterventionKind::Recovery { quarantined_for } => {
                write!(f, "recovered after {quarantined_for} in quarantine")
            }
            InterventionKind::AppCrash { cancelled } => {
                write!(f, "crash cancelled {cancelled} alarms")
            }
            InterventionKind::AppRestart { reregistered } => {
                write!(f, "restart re-registered {reregistered} alarms")
            }
            InterventionKind::Reboot { outage } => {
                write!(f, "device rebooted ({outage} outage)")
            }
            InterventionKind::BootCatchUp {
                caught_up,
                worst_delay,
            } => {
                write!(
                    f,
                    "boot caught up {caught_up} overdue entries (worst delay {worst_delay})"
                )
            }
        }
    }
}

/// One runtime intervention, timestamped and attributed to an app.
#[derive(Debug, Clone, PartialEq)]
pub struct InterventionRecord {
    /// When the intervention happened.
    pub at: SimTime,
    /// The app it targeted (alarm label).
    pub app: String,
    /// What was done.
    pub kind: InterventionKind,
    /// Estimated extra energy this intervention cost (e.g. the wake
    /// transition paid by a retry), in millijoules. Zero for
    /// interventions that only release resources.
    pub overhead_mj: f64,
}

impl fmt::Display for InterventionRecord {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} {}: {}", self.at, self.app, self.kind)
    }
}

/// Error produced while loading a trace CSV.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseTraceError {
    /// 1-based line number of the offending row.
    pub line: usize,
    /// What went wrong.
    pub message: String,
}

impl fmt::Display for ParseTraceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "trace csv line {}: {}", self.line, self.message)
    }
}

impl std::error::Error for ParseTraceError {}

/// The full log of one simulation run.
#[derive(Debug, Clone, Default)]
pub struct Trace {
    pub(crate) deliveries: Vec<DeliveryRecord>,
    pub(crate) wakeups: Vec<SimTime>,
    pub(crate) entry_deliveries: u64,
    pub(crate) interventions: Vec<InterventionRecord>,
}

impl Trace {
    /// Creates an empty trace.
    pub fn new() -> Self {
        Trace::default()
    }

    /// Appends a delivery record.
    pub fn record_delivery(&mut self, record: DeliveryRecord) {
        self.deliveries.push(record);
    }

    /// Appends a device wakeup (sleep→awake transition) instant.
    pub fn record_wakeup(&mut self, at: SimTime) {
        self.wakeups.push(at);
    }

    /// Counts one queue-entry (batch) delivery. This is the paper's
    /// Table 4 CPU numerator: every entry delivery is a wakeup *request*,
    /// even when the device happens to be awake already.
    pub fn record_entry_delivery(&mut self) {
        self.entry_deliveries += 1;
    }

    /// Number of queue entries delivered so far.
    pub fn entry_deliveries(&self) -> u64 {
        self.entry_deliveries
    }

    /// Appends a runtime intervention (watchdog remedy or injected
    /// fault).
    pub fn record_intervention(&mut self, record: InterventionRecord) {
        self.interventions.push(record);
    }

    /// All interventions in order of occurrence.
    pub fn interventions(&self) -> &[InterventionRecord] {
        &self.interventions
    }

    /// All deliveries in order of occurrence.
    pub fn deliveries(&self) -> &[DeliveryRecord] {
        &self.deliveries
    }

    /// All device wakeup instants in order.
    pub fn wakeups(&self) -> &[SimTime] {
        &self.wakeups
    }

    /// Delivery instants grouped per alarm, in delivery order.
    pub fn deliveries_by_alarm(&self) -> BTreeMap<AlarmId, Vec<SimTime>> {
        let mut map: BTreeMap<AlarmId, Vec<SimTime>> = BTreeMap::new();
        for d in &self.deliveries {
            map.entry(d.alarm_id).or_default().push(d.delivered_at);
        }
        map
    }

    /// Gaps between adjacent deliveries of each alarm — the quantity the
    /// §3.2.2 bounds constrain.
    pub fn adjacent_gaps(&self) -> BTreeMap<AlarmId, Vec<SimDuration>> {
        self.deliveries_by_alarm()
            .into_iter()
            .map(|(id, times)| {
                let gaps = times.windows(2).map(|w| w[1] - w[0]).collect();
                (id, gaps)
            })
            .collect()
    }

    /// Reads a delivery trace previously written by
    /// [`write_csv`](Self::write_csv). Wakeup instants and entry-delivery
    /// counts are not stored in the CSV, so the loaded trace only carries
    /// deliveries (sufficient for all per-delivery analysis).
    ///
    /// # Errors
    ///
    /// Returns a [`ParseTraceError`] naming the offending line for any
    /// malformed row.
    pub fn read_csv(text: &str) -> Result<Trace, ParseTraceError> {
        let mut trace = Trace::new();
        let mut ids: std::collections::BTreeMap<u64, AlarmId> = Default::default();
        for (idx, line) in text.lines().enumerate().skip(1) {
            let line_no = idx + 1;
            if line.trim().is_empty() {
                continue;
            }
            let fields: Vec<&str> = line.split(',').collect();
            if fields.len() != 11 {
                return Err(ParseTraceError {
                    line: line_no,
                    message: format!("expected 11 columns, got {}", fields.len()),
                });
            }
            let parse_u64 = |s: &str, what: &str| -> Result<u64, ParseTraceError> {
                s.parse().map_err(|_| ParseTraceError {
                    line: line_no,
                    message: format!("invalid {what} `{s}`"),
                })
            };
            // CSV ids are remapped onto fresh process-local AlarmIds so a
            // loaded trace cannot collide with live alarms.
            let raw_id = parse_u64(fields[0], "alarm id")?;
            let alarm_id = *ids.entry(raw_id).or_insert_with(AlarmId::fresh);
            let nominal = SimTime::from_millis(parse_u64(fields[2], "nominal")?);
            let window_end = SimTime::from_millis(parse_u64(fields[3], "window end")?);
            let grace_end = SimTime::from_millis(parse_u64(fields[4], "grace end")?);
            let delivered_at = SimTime::from_millis(parse_u64(fields[5], "delivery time")?);
            let repeat_ms = parse_u64(fields[6], "repeat interval")?;
            let perceptible = fields[8].parse().map_err(|_| ParseTraceError {
                line: line_no,
                message: format!("invalid perceptible flag `{}`", fields[8]),
            })?;
            let entry_size = parse_u64(fields[9], "entry size")? as usize;
            let task_duration = SimDuration::from_millis(parse_u64(fields[10], "task duration")?);
            trace.record_delivery(DeliveryRecord {
                alarm_id,
                label: fields[1].into(),
                nominal,
                window_end,
                grace_end,
                delivered_at,
                repeat_interval: if repeat_ms == 0 {
                    None
                } else {
                    Some(SimDuration::from_millis(repeat_ms))
                },
                // The hardware column is a display string; perceptibility
                // is what the analyses need and travels in its own column.
                hardware: HardwareSet::empty(),
                perceptible,
                kind: AlarmKind::Wakeup,
                entry_size,
                task_duration,
            });
        }
        Ok(trace)
    }

    /// Writes the deliveries as CSV (one row per delivery).
    ///
    /// # Errors
    ///
    /// Propagates I/O errors from the writer.
    pub fn write_csv<W: Write>(&self, mut w: W) -> io::Result<()> {
        writeln!(
            w,
            "alarm_id,label,nominal_ms,window_end_ms,grace_end_ms,delivered_ms,repeat_ms,hardware,perceptible,entry_size,task_ms"
        )?;
        // Each row is built in one reused buffer: no per-field
        // formatting machinery and no temporary strings.
        let mut row = String::with_capacity(128);
        for d in &self.deliveries {
            row.clear();
            join!(
                &mut row,
                ',',
                d.alarm_id,
                &*d.label,
                d.nominal,
                d.window_end,
                d.grace_end,
                d.delivered_at,
                d.repeat_interval.map_or(0, SimDuration::as_millis),
            );
            // The hardware field is '+'-joined so it stays comma-free.
            row.push(',');
            if d.hardware.is_empty() {
                row.push_str("none");
            }
            for (i, c) in d.hardware.iter().enumerate() {
                if i > 0 {
                    row.push('+');
                }
                row.push_str(c.name());
            }
            row.push_str(if d.perceptible { ",true," } else { ",false," });
            join!(&mut row, ',', d.entry_size, d.task_duration);
            row.push('\n');
            w.write_all(row.as_bytes())?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use simty_core::hardware::HardwareComponent;

    fn record(delivered_s: u64) -> DeliveryRecord {
        let mut alarm = Alarm::builder("t")
            .nominal(SimTime::from_secs(100))
            .repeating_static(SimDuration::from_secs(100))
            .window_fraction(0.25)
            .grace_fraction(0.9)
            .hardware(HardwareComponent::Wifi.into())
            .build()
            .unwrap();
        alarm.mark_hardware_known();
        DeliveryRecord::observe(&alarm, SimTime::from_secs(delivered_s), 1)
    }

    #[test]
    fn delay_is_zero_inside_the_window() {
        // Window [100, 125].
        let r = record(120);
        assert_eq!(r.delay_beyond_window(), SimDuration::ZERO);
        assert_eq!(r.normalized_delay(), Some(0.0));
    }

    #[test]
    fn delay_is_normalized_by_the_repeating_interval() {
        let r = record(150); // 25 s beyond the window end of 125.
        assert_eq!(r.delay_beyond_window(), SimDuration::from_secs(25));
        assert!((r.normalized_delay().unwrap() - 0.25).abs() < 1e-12);
        assert!(r.within_grace()); // grace ends at 190
        assert!(!record(195).within_grace());
    }

    #[test]
    fn one_shot_has_no_normalized_delay() {
        let one_shot = Alarm::builder("o").nominal(SimTime::from_secs(5)).build().unwrap();
        let r = DeliveryRecord::observe(&one_shot, SimTime::from_secs(6), 1);
        assert_eq!(r.normalized_delay(), None);
        assert!(r.perceptible);
    }

    #[test]
    fn ground_truth_perceptibility_ignores_learning() {
        // The alarm's hardware is Wi-Fi (imperceptible) even though the
        // manager has not learned it yet.
        let alarm = Alarm::builder("w")
            .nominal(SimTime::from_secs(1))
            .repeating_static(SimDuration::from_secs(10))
            .hardware(HardwareComponent::Wifi.into())
            .build()
            .unwrap();
        assert!(alarm.is_perceptible()); // policy view (unknown hardware)
        let r = DeliveryRecord::observe(&alarm, SimTime::from_secs(1), 1);
        assert!(!r.perceptible); // metrics view (ground truth)
    }

    #[test]
    fn adjacent_gaps_per_alarm() {
        // One alarm observed at three instants (the `record` helper would
        // mint a fresh alarm id per call).
        let mut alarm = Alarm::builder("t")
            .nominal(SimTime::from_secs(100))
            .repeating_static(SimDuration::from_secs(100))
            .window_fraction(0.25)
            .grace_fraction(0.9)
            .hardware(HardwareComponent::Wifi.into())
            .build()
            .unwrap();
        alarm.mark_hardware_known();
        let mut t = Trace::new();
        for s in [100, 220, 330] {
            t.record_delivery(DeliveryRecord::observe(&alarm, SimTime::from_secs(s), 1));
        }
        let gaps = t.adjacent_gaps();
        assert_eq!(gaps.len(), 1);
        let only = gaps.values().next().unwrap();
        assert_eq!(
            only,
            &vec![SimDuration::from_secs(120), SimDuration::from_secs(110)]
        );
    }

    #[test]
    fn csv_read_round_trips_deliveries() {
        let mut alarm = Alarm::builder("t")
            .nominal(SimTime::from_secs(100))
            .repeating_static(SimDuration::from_secs(100))
            .window_fraction(0.25)
            .grace_fraction(0.9)
            .hardware(HardwareComponent::Wifi.into())
            .build()
            .unwrap();
        alarm.mark_hardware_known();
        let mut t = Trace::new();
        t.record_delivery(DeliveryRecord::observe(&alarm, SimTime::from_secs(150), 1));
        t.record_delivery(DeliveryRecord::observe(&alarm, SimTime::from_secs(260), 2));
        let mut buf = Vec::new();
        t.write_csv(&mut buf).unwrap();
        let text = String::from_utf8(buf).unwrap();
        let loaded = Trace::read_csv(&text).unwrap();
        assert_eq!(loaded.deliveries().len(), 2);
        for (a, b) in loaded.deliveries().iter().zip(t.deliveries()) {
            assert_eq!(a.label, b.label);
            assert_eq!(a.delivered_at, b.delivered_at);
            assert_eq!(a.nominal, b.nominal);
            assert_eq!(a.window_end, b.window_end);
            assert_eq!(a.grace_end, b.grace_end);
            assert_eq!(a.repeat_interval, b.repeat_interval);
            assert_eq!(a.perceptible, b.perceptible);
            assert_eq!(a.entry_size, b.entry_size);
            assert_eq!(a.normalized_delay(), b.normalized_delay());
        }
        // Same source alarm keeps one (fresh) id across rows.
        assert_eq!(
            loaded.deliveries()[0].alarm_id,
            loaded.deliveries()[1].alarm_id
        );
    }

    #[test]
    fn csv_read_reports_bad_lines() {
        let err = Trace::read_csv("header\nnot,enough,columns\n").unwrap_err();
        assert_eq!(err.line, 2);
        assert!(err.to_string().contains("line 2"));
        let err =
            Trace::read_csv("h\nx,app,1,2,3,4,5,none,true,1,500\n").unwrap_err();
        assert!(err.message.contains("alarm id"));
    }

    #[test]
    fn csv_read_rejects_a_record_truncated_by_eof() {
        // A good row followed by a row the writer died in the middle of:
        // the column count betrays the torn tail, and the error names it.
        let good = "1,app,1000,2000,3000,1500,0,none,true,1,500";
        let torn = format!("h\n{good}\n2,app,1000,2000,30");
        let err = Trace::read_csv(&torn).unwrap_err();
        assert_eq!(err.line, 3);
        assert!(err.message.contains("expected 11 columns"), "{err}");
        // EOF exactly at a record boundary parses cleanly (no trailing \n).
        let whole = format!("h\n{good}");
        assert_eq!(Trace::read_csv(&whole).unwrap().deliveries().len(), 1);
    }

    #[test]
    fn csv_read_rejects_bad_fields_in_every_numeric_column() {
        let bad_rows = [
            ("h\n1,app,zap,2000,3000,1500,0,none,true,1,500", "nominal"),
            ("h\n1,app,1000,zap,3000,1500,0,none,true,1,500", "window end"),
            ("h\n1,app,1000,2000,zap,1500,0,none,true,1,500", "grace end"),
            ("h\n1,app,1000,2000,3000,zap,0,none,true,1,500", "delivery time"),
            ("h\n1,app,1000,2000,3000,1500,zap,none,true,1,500", "repeat interval"),
            ("h\n1,app,1000,2000,3000,1500,0,none,maybe,1,500", "perceptible"),
            ("h\n1,app,1000,2000,3000,1500,0,none,true,zap,500", "entry size"),
            ("h\n1,app,1000,2000,3000,1500,0,none,true,1,zap", "task duration"),
        ];
        for (text, what) in bad_rows {
            let err = Trace::read_csv(text).unwrap_err();
            assert_eq!(err.line, 2, "{what}");
            assert!(
                err.message.contains(what),
                "expected `{what}` in `{}`",
                err.message
            );
        }
        // A negative count is as invalid as a non-numeric one.
        let err = Trace::read_csv("h\n1,app,-5,2000,3000,1500,0,none,true,1,500").unwrap_err();
        assert!(err.message.contains("nominal"), "{err}");
    }

    #[test]
    fn csv_read_skips_blank_lines_but_not_garbage() {
        let good = "1,app,1000,2000,3000,1500,0,none,true,1,500";
        let text = format!("h\n\n{good}\n   \n{good}\n");
        let loaded = Trace::read_csv(&text).unwrap();
        assert_eq!(loaded.deliveries().len(), 2);
        assert!(Trace::read_csv("h\n,,,,,,,,,,\n").is_err());
    }

    #[test]
    fn csv_roundtrip_shape() {
        let mut t = Trace::new();
        t.record_delivery(record(100));
        t.record_wakeup(SimTime::from_secs(100));
        let mut buf = Vec::new();
        t.write_csv(&mut buf).unwrap();
        let text = String::from_utf8(buf).unwrap();
        assert_eq!(text.lines().count(), 2);
        assert!(text.lines().nth(1).unwrap().contains(",t,"));
        assert_eq!(t.wakeups().len(), 1);
    }
}
