//! Per-app energy attribution: which app is draining the battery?
//!
//! The paper's motivation is that resident apps "gradually and
//! imperceptibly drain device batteries"; a practical wakeup manager
//! therefore needs to say *which* app is responsible for how much of the
//! awake-related energy. This ledger splits every awake-energy category
//! among the tasks that caused it, using the same piecewise-constant
//! segments as the device's [`EnergyMeter`](simty_device::energy::EnergyMeter):
//!
//! * **awake-base power** — split equally among the tasks running in the
//!   segment; accrued to *overhead* when the device is awake with no task
//!   (wake latency, sleep linger);
//! * **component power** — split equally among the tasks holding that
//!   component in the segment;
//! * **activation energy** — charged to the task(s) whose delivery newly
//!   activated the component;
//! * **wake-transition energy** — split among the alarms delivered by the
//!   wakeup that paid it; *overhead* if the wake served no alarm (e.g. an
//!   external event with nothing due).
//!
//! The conservation invariant — attributed + overhead = the meter's
//! awake-related energy — is enforced by the integration tests.
//!
//! # Cost model
//!
//! Each app label is interned into a dense slot on its first
//! [`start_task`](AttributionLedger::start_task); active tasks carry
//! their slot, and energy accrues into a `Vec<f64>` indexed by it. The
//! per-segment work of [`advance_to`](AttributionLedger::advance_to) is
//! therefore O(active tasks × held components), whatever the number of
//! apps the device has seen; a task start costs one binary search over
//! the interned names.
//!
//! # Bit identity
//!
//! Floating-point addition is not associative, so the ledger pins the
//! order of every sum: each app receives its additions in the order the
//! engine issues them (its task charge, then per segment the base-power
//! share and one share per held component, tasks in start order), and
//! every total over apps (the attributed sum, the ranking, the
//! checkpoint's `lp=` lines) reads the apps in name order.

use std::collections::BTreeMap;
use std::fmt;
use std::sync::Arc;

use simty_core::hardware::HardwareSet;
use simty_core::time::{SimDuration, SimTime};
use simty_device::power::PowerModel;

/// A task currently holding the device awake.
#[derive(Debug, Clone)]
pub(crate) struct ActiveTask {
    /// The app's slot in the ledger's interned tables.
    pub(crate) slot: usize,
    pub(crate) hardware: HardwareSet,
    pub(crate) until: SimTime,
}

/// The per-app energy ledger (all values in mJ).
///
/// Driven by the [`Simulation`](crate::engine::Simulation) engine; read
/// it after a run via
/// [`Simulation::attribution`](crate::engine::Simulation::attribution).
#[derive(Debug, Clone)]
pub struct AttributionLedger {
    pub(crate) model: PowerModel,
    pub(crate) active: Vec<ActiveTask>,
    /// Interned app labels, indexed by slot (first-seen order).
    pub(crate) apps: Vec<Arc<str>>,
    /// Energy attributed to each slot so far.
    mj: Vec<f64>,
    /// The slots in app-name order.
    by_name: Vec<usize>,
    pub(crate) interventions: BTreeMap<String, u64>,
    pub(crate) overhead_mj: f64,
    pub(crate) pending_transition_mj: f64,
    pub(crate) last: SimTime,
    pub(crate) awake: bool,
}

impl AttributionLedger {
    /// Creates an empty ledger for a device governed by `model`.
    pub fn new(model: PowerModel) -> Self {
        AttributionLedger {
            model,
            active: Vec::new(),
            apps: Vec::new(),
            mj: Vec::new(),
            by_name: Vec::new(),
            interventions: BTreeMap::new(),
            overhead_mj: 0.0,
            pending_transition_mj: 0.0,
            last: SimTime::ZERO,
            awake: false,
        }
    }

    /// Integrates the segment `[last, now]` under the current task set
    /// and records the device's awake state from `now` on. Must be called
    /// at every instant the task set or device state changes (the engine
    /// guarantees this by construction).
    pub fn advance_to(&mut self, now: SimTime, awake_after: bool) {
        let dt = now.saturating_since(self.last);
        if !dt.is_zero() && self.awake {
            self.accrue_awake_segment(dt);
        }
        self.active.retain(|t| t.until > now);
        self.last = self.last.max(now);
        self.awake = awake_after;
    }

    /// Notes that a wake transition was paid at this instant; its energy
    /// is attributed to the alarms subsequently delivered by this wakeup.
    pub fn note_wake_transition(&mut self) {
        // An unclaimed previous transition (a wake that served nothing)
        // becomes overhead.
        self.overhead_mj += self.pending_transition_mj;
        self.pending_transition_mj = self.model.wake_transition_energy_mj;
    }

    /// Records a delivered task: `app`'s task holds `hardware` until
    /// `until`; `newly_activated` are the components whose activation
    /// energy this delivery triggered; `batch_size` is the number of
    /// alarms delivered together (they share any pending transition).
    pub fn start_task(
        &mut self,
        app: &Arc<str>,
        hardware: HardwareSet,
        until: SimTime,
        newly_activated: HardwareSet,
        batch_size: usize,
    ) {
        let mut charge = 0.0;
        for c in newly_activated {
            charge += self.model.component(c).activation_energy_mj;
        }
        // The whole batch shares the one transition; each alarm claims its
        // slice the first time it is seen.
        if self.pending_transition_mj > 0.0 && batch_size > 0 {
            let share = self.model.wake_transition_energy_mj / batch_size as f64;
            let claimed = share.min(self.pending_transition_mj);
            charge += claimed;
            self.pending_transition_mj -= claimed;
            if self.pending_transition_mj < 1e-9 {
                self.pending_transition_mj = 0.0;
            }
        }
        // A new app's slot starts at +0.0, and `0.0 + charge` is `charge`
        // bit for bit (a charge is never -0.0).
        let slot = self.intern(app);
        self.mj[slot] += charge;
        self.active.push(ActiveTask {
            slot,
            hardware,
            until,
        });
    }

    /// Energy attributed to each app so far, in mJ, keyed by app name
    /// (a fresh map per call; the ledger itself indexes apps by slot).
    pub fn per_app_mj(&self) -> BTreeMap<&str, f64> {
        self.per_app().collect()
    }

    /// Each app and its attributed energy, in app-name order.
    pub(crate) fn per_app(&self) -> impl Iterator<Item = (&str, f64)> + '_ {
        self.by_name.iter().map(|&s| (&*self.apps[s], self.mj[s]))
    }

    /// Awake energy not attributable to any app: wake latency and sleep
    /// linger with no task running, and wakes that served no alarm.
    pub fn overhead_mj(&self) -> f64 {
        self.overhead_mj + self.pending_transition_mj
    }

    /// Total attributed energy (excluding overhead), in mJ.
    pub fn attributed_mj(&self) -> f64 {
        self.per_app().map(|(_, mj)| mj).sum()
    }

    /// Drops every active task immediately (mirrors the device's forced
    /// wakelock release, so ledger and meter stay conserved).
    pub fn drop_all_tasks(&mut self, now: SimTime) {
        self.advance_to(now, self.awake);
        self.active.clear();
    }

    /// Drops one app's active tasks, leaving every other task running —
    /// the ledger half of the per-offender forced release: the offender
    /// keeps everything already attributed to it, and stops accruing from
    /// `now` on. Also counts one watchdog intervention against the app.
    pub fn drop_app_tasks(&mut self, app: &str, now: SimTime) {
        self.advance_to(now, self.awake);
        if let Ok(pos) = self.find(app) {
            let slot = self.by_name[pos];
            self.active.retain(|t| t.slot != slot);
        }
        *self.interventions.entry(app.to_owned()).or_insert(0) += 1;
    }

    /// How many watchdog interventions were attributed to each app.
    pub fn interventions_per_app(&self) -> &BTreeMap<String, u64> {
        &self.interventions
    }

    /// Apps ranked by attributed energy, highest first.
    pub fn ranking(&self) -> Vec<(String, f64)> {
        let mut v: Vec<(String, f64)> = self
            .per_app()
            .map(|(k, v)| (k.to_owned(), v))
            .collect();
        v.sort_by(|a, b| b.1.partial_cmp(&a.1).expect("energies are finite"));
        v
    }

    /// Sets `app`'s attributed energy (checkpoint restore).
    pub(crate) fn restore_app(&mut self, app: &Arc<str>, mj: f64) {
        let slot = self.intern(app);
        self.mj[slot] = mj;
    }

    /// Re-adds an active task (checkpoint restore), interning its app if
    /// the checkpoint attributed it nothing yet.
    pub(crate) fn restore_task(&mut self, app: &Arc<str>, hardware: HardwareSet, until: SimTime) {
        let slot = self.intern(app);
        self.active.push(ActiveTask {
            slot,
            hardware,
            until,
        });
    }

    /// Where `app` sits in (or would go into) the name-ordered slots.
    fn find(&self, app: &str) -> Result<usize, usize> {
        self.by_name.binary_search_by(|&s| (*self.apps[s]).cmp(app))
    }

    /// `app`'s slot, allocating one at +0.0 mJ on first sight.
    fn intern(&mut self, app: &Arc<str>) -> usize {
        match self.find(app) {
            Ok(pos) => self.by_name[pos],
            Err(pos) => {
                let slot = self.apps.len();
                self.apps.push(Arc::clone(app));
                self.mj.push(0.0);
                self.by_name.insert(pos, slot);
                slot
            }
        }
    }

    fn accrue_awake_segment(&mut self, dt: SimDuration) {
        let secs = dt.as_secs_f64();
        // This runs once per event-loop batch, so it must not allocate:
        // tasks are scanned by index (two passes: count, then charge)
        // and charged through their slot.
        let last = self.last;
        let running = |t: &ActiveTask| t.until > last;
        let n_running = self.active.iter().filter(|t| running(t)).count();
        // Base power: split equally among running tasks, or overhead.
        let base = self.model.awake_base_power_mw * secs;
        if n_running == 0 {
            self.overhead_mj += base;
        } else {
            let share = base / n_running as f64;
            for t in &self.active {
                if running(t) {
                    self.mj[t.slot] += share;
                }
            }
        }
        // Component power: split among the tasks holding each component.
        for c in simty_core::hardware::HardwareComponent::ALL {
            let holds = |t: &ActiveTask| running(t) && t.hardware.contains(c);
            let n_holders = self.active.iter().filter(|t| holds(t)).count();
            if n_holders == 0 {
                continue;
            }
            let energy = self.model.component(c).active_power_mw * secs;
            let share = energy / n_holders as f64;
            for t in &self.active {
                if holds(t) {
                    self.mj[t.slot] += share;
                }
            }
        }
    }
}

impl fmt::Display for AttributionLedger {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "per-app energy attribution (mJ):")?;
        for (app, mj) in self.ranking() {
            writeln!(f, "  {app:<20} {mj:>12.1}")?;
        }
        write!(f, "  {:<20} {:>12.1}", "(overhead)", self.overhead_mj())
    }
}

/// The name-keyed ledger the slot-indexed one replaced, retained
/// verbatim as the differential-testing reference: it charges apps
/// through a `BTreeMap<String, f64>` lookup per running task and held
/// component, and its per-app sums define the bits the slot ledger must
/// reproduce.
#[cfg(test)]
mod reference {
    use std::collections::BTreeMap;
    use std::sync::Arc;

    use simty_core::hardware::HardwareSet;
    use simty_core::time::{SimDuration, SimTime};
    use simty_device::power::PowerModel;

    struct ActiveTask {
        app: Arc<str>,
        hardware: HardwareSet,
        until: SimTime,
    }

    /// The reference ledger (the subset of the API the tests drive).
    pub(crate) struct NameKeyedLedger {
        model: PowerModel,
        active: Vec<ActiveTask>,
        pub(crate) per_app: BTreeMap<String, f64>,
        pub(crate) interventions: BTreeMap<String, u64>,
        overhead_mj: f64,
        pending_transition_mj: f64,
        last: SimTime,
        awake: bool,
    }

    impl NameKeyedLedger {
        pub(crate) fn new(model: PowerModel) -> Self {
            NameKeyedLedger {
                model,
                active: Vec::new(),
                per_app: BTreeMap::new(),
                interventions: BTreeMap::new(),
                overhead_mj: 0.0,
                pending_transition_mj: 0.0,
                last: SimTime::ZERO,
                awake: false,
            }
        }

        pub(crate) fn advance_to(&mut self, now: SimTime, awake_after: bool) {
            let dt = now.saturating_since(self.last);
            if !dt.is_zero() && self.awake {
                self.accrue_awake_segment(dt);
            }
            self.active.retain(|t| t.until > now);
            self.last = self.last.max(now);
            self.awake = awake_after;
        }

        pub(crate) fn note_wake_transition(&mut self) {
            self.overhead_mj += self.pending_transition_mj;
            self.pending_transition_mj = self.model.wake_transition_energy_mj;
        }

        pub(crate) fn start_task(
            &mut self,
            app: &Arc<str>,
            hardware: HardwareSet,
            until: SimTime,
            newly_activated: HardwareSet,
            batch_size: usize,
        ) {
            let mut charge = 0.0;
            for c in newly_activated {
                charge += self.model.component(c).activation_energy_mj;
            }
            if self.pending_transition_mj > 0.0 && batch_size > 0 {
                let share = self.model.wake_transition_energy_mj / batch_size as f64;
                let claimed = share.min(self.pending_transition_mj);
                charge += claimed;
                self.pending_transition_mj -= claimed;
                if self.pending_transition_mj < 1e-9 {
                    self.pending_transition_mj = 0.0;
                }
            }
            bump(&mut self.per_app, app, charge);
            self.active.push(ActiveTask {
                app: Arc::clone(app),
                hardware,
                until,
            });
        }

        pub(crate) fn overhead_mj(&self) -> f64 {
            self.overhead_mj + self.pending_transition_mj
        }

        pub(crate) fn attributed_mj(&self) -> f64 {
            self.per_app.values().sum()
        }

        pub(crate) fn drop_all_tasks(&mut self, now: SimTime) {
            self.advance_to(now, self.awake);
            self.active.clear();
        }

        pub(crate) fn drop_app_tasks(&mut self, app: &str, now: SimTime) {
            self.advance_to(now, self.awake);
            self.active.retain(|t| *t.app != *app);
            *self.interventions.entry(app.to_owned()).or_insert(0) += 1;
        }

        fn accrue_awake_segment(&mut self, dt: SimDuration) {
            let secs = dt.as_secs_f64();
            let last = self.last;
            let running = |t: &ActiveTask| t.until > last;
            let n_running = self.active.iter().filter(|t| running(t)).count();
            let base = self.model.awake_base_power_mw * secs;
            if n_running == 0 {
                self.overhead_mj += base;
            } else {
                let share = base / n_running as f64;
                for i in 0..self.active.len() {
                    if running(&self.active[i]) {
                        let app = Arc::clone(&self.active[i].app);
                        bump(&mut self.per_app, &app, share);
                    }
                }
            }
            for c in simty_core::hardware::HardwareComponent::ALL {
                let holds = |t: &ActiveTask| running(t) && t.hardware.contains(c);
                let n_holders = self.active.iter().filter(|t| holds(t)).count();
                if n_holders == 0 {
                    continue;
                }
                let energy = self.model.component(c).active_power_mw * secs;
                let share = energy / n_holders as f64;
                for i in 0..self.active.len() {
                    if holds(&self.active[i]) {
                        let app = Arc::clone(&self.active[i].app);
                        bump(&mut self.per_app, &app, share);
                    }
                }
            }
        }
    }

    fn bump(per_app: &mut BTreeMap<String, f64>, app: &str, amt: f64) {
        if let Some(v) = per_app.get_mut(app) {
            *v += amt;
        } else {
            per_app.insert(app.to_owned(), amt);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use simty_core::hardware::HardwareComponent;

    fn ledger() -> AttributionLedger {
        AttributionLedger::new(PowerModel::nexus5())
    }

    #[test]
    fn lone_task_gets_everything_but_latency_and_linger_overhead() {
        let mut l = ledger();
        // Wake at 10 s (the Waking state counts as awake, like the device
        // meter), task from 10.25 s to 13.25 s, linger until 13.5 s.
        l.advance_to(SimTime::from_secs(10), true);
        l.note_wake_transition();
        l.advance_to(SimTime::from_millis(10_250), true);
        l.start_task(
            &"app".into(),
            HardwareComponent::Wifi.into(),
            SimTime::from_millis(13_250),
            HardwareComponent::Wifi.into(),
            1,
        );
        l.advance_to(SimTime::from_millis(13_250), true);
        l.advance_to(SimTime::from_millis(13_500), false);
        let app = l.per_app_mj()["app"];
        // transition 100 + activation 200 + 3 s of (base 160 + wifi 150).
        let expected = 100.0 + 200.0 + 3.0 * 310.0;
        assert!((app - expected).abs() < 1e-6, "got {app}");
        // Latency and linger (0.5 s of base power) with no task: overhead.
        assert!((l.overhead_mj() - 0.5 * 160.0).abs() < 1e-6);
        // Conservation: the device meter would report 100 + 3.5 s × 160 +
        // 200 + 3 s × 150 of awake-related energy.
        let meter_awake = 100.0 + 3.5 * 160.0 + 200.0 + 3.0 * 150.0;
        assert!((l.attributed_mj() + l.overhead_mj() - meter_awake).abs() < 1e-6);
    }

    #[test]
    fn concurrent_tasks_split_base_and_shared_components() {
        let mut l = ledger();
        l.advance_to(SimTime::from_secs(0), true);
        l.start_task(
            &"a".into(),
            HardwareComponent::Wifi.into(),
            SimTime::from_secs(2),
            HardwareComponent::Wifi.into(),
            2,
        );
        l.start_task(
            &"b".into(),
            HardwareComponent::Wifi.into(),
            SimTime::from_secs(2),
            HardwareSet::empty(),
            2,
        );
        l.advance_to(SimTime::from_secs(2), false);
        let a = l.per_app_mj()["a"];
        let b = l.per_app_mj()["b"];
        // Both split base (160) and wifi power (150) over 2 s; `a` paid the
        // activation (200); no transition was pending.
        assert!((b - (160.0 + 150.0)).abs() < 1e-6, "b = {b}");
        assert!((a - (160.0 + 150.0 + 200.0)).abs() < 1e-6, "a = {a}");
    }

    #[test]
    fn batch_members_share_the_transition() {
        let mut l = ledger();
        l.note_wake_transition();
        l.advance_to(SimTime::from_secs(1), true);
        l.start_task(&"a".into(), HardwareSet::empty(), SimTime::from_secs(1), HardwareSet::empty(), 2);
        l.start_task(&"b".into(), HardwareSet::empty(), SimTime::from_secs(1), HardwareSet::empty(), 2);
        assert!((l.per_app_mj()["a"] - 50.0).abs() < 1e-9);
        assert!((l.per_app_mj()["b"] - 50.0).abs() < 1e-9);
        assert_eq!(l.overhead_mj(), 0.0);
    }

    #[test]
    fn unclaimed_transition_becomes_overhead() {
        let mut l = ledger();
        l.note_wake_transition();
        l.advance_to(SimTime::from_secs(5), false);
        // A second wake with the first still unclaimed.
        l.note_wake_transition();
        assert!((l.overhead_mj() - 200.0).abs() < 1e-9);
    }

    #[test]
    fn drop_app_tasks_spares_the_bystander() {
        let mut l = ledger();
        l.advance_to(SimTime::from_secs(0), true);
        l.start_task(&"offender".into(), HardwareSet::empty(), SimTime::from_secs(100), HardwareSet::empty(), 1);
        l.start_task(&"bystander".into(), HardwareSet::empty(), SimTime::from_secs(4), HardwareSet::empty(), 1);
        l.advance_to(SimTime::from_secs(2), true);
        l.drop_app_tasks("offender", SimTime::from_secs(2));
        l.advance_to(SimTime::from_secs(4), false);
        // Both split base power for 2 s; the bystander then accrues the
        // remaining 2 s alone.
        let offender = l.per_app_mj()["offender"];
        let bystander = l.per_app_mj()["bystander"];
        assert!((offender - 160.0).abs() < 1e-9, "offender = {offender}");
        assert!((bystander - (160.0 + 320.0)).abs() < 1e-9, "bystander = {bystander}");
        assert_eq!(l.interventions_per_app()["offender"], 1);
        assert!(!l.interventions_per_app().contains_key("bystander"));
    }

    #[test]
    fn ranking_is_descending() {
        let mut l = ledger();
        l.advance_to(SimTime::from_secs(0), true);
        l.start_task(&"small".into(), HardwareSet::empty(), SimTime::from_secs(1), HardwareSet::empty(), 1);
        l.advance_to(SimTime::from_secs(1), true);
        l.start_task(
            &"big".into(),
            HardwareComponent::Wps.into(),
            SimTime::from_secs(9),
            HardwareComponent::Wps.into(),
            1,
        );
        l.advance_to(SimTime::from_secs(9), false);
        let ranking = l.ranking();
        assert_eq!(ranking[0].0, "big");
        assert!(ranking[0].1 > ranking[1].1);
        assert!(l.to_string().contains("overhead"));
    }

    use proptest::prelude::*;

    use super::reference::NameKeyedLedger;

    #[derive(Debug, Clone)]
    enum Op {
        Start {
            app: u8,
            hardware: u16,
            newly: u16,
            hold_ms: u64,
            batch: usize,
        },
        Advance { ms: u64, awake: bool },
        DropApp(u8),
        DropAll,
        Wake,
        RoundTrip,
    }

    fn arb_op() -> impl Strategy<Value = Op> {
        prop_oneof![
            (0u8..9, 0u16..256, 0u16..256, 0u64..20_000, 0usize..4).prop_map(
                |(app, hardware, newly, hold_ms, batch)| Op::Start {
                    app,
                    hardware,
                    newly,
                    hold_ms,
                    batch,
                }
            ),
            (0u64..6_000, any::<bool>()).prop_map(|(ms, awake)| Op::Advance { ms, awake }),
            (0u64..6_000, any::<bool>()).prop_map(|(ms, awake)| Op::Advance { ms, awake }),
            (0u8..9).prop_map(Op::DropApp),
            Just(Op::DropAll),
            Just(Op::Wake),
            Just(Op::RoundTrip),
        ]
    }

    /// Every observable value, as bits.
    fn bits_of(l: &AttributionLedger) -> (Vec<(String, u64)>, u64, u64) {
        let per_app = l.per_app().map(|(a, mj)| (a.to_owned(), mj.to_bits())).collect();
        (per_app, l.overhead_mj().to_bits(), l.attributed_mj().to_bits())
    }

    fn reference_bits(r: &NameKeyedLedger) -> (Vec<(String, u64)>, u64, u64) {
        let per_app = r.per_app.iter().map(|(a, mj)| (a.clone(), mj.to_bits())).collect();
        (per_app, r.overhead_mj().to_bits(), r.attributed_mj().to_bits())
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(192))]

        /// The slot ledger reproduces the name-keyed one bit for bit over
        /// random task, segment, drop and wake sequences, and a checkpoint
        /// round trip anywhere in the sequence changes nothing.
        #[test]
        fn slot_ledger_matches_the_name_keyed_reference(
            ops in prop::collection::vec(arb_op(), 1..120),
        ) {
            let labels: Vec<Arc<str>> = ["mail", "maps", "news", "chat", "a,b", "a\\n", "zz", "Chat", "m"]
                .iter()
                .map(|&s| Arc::from(s))
                .collect();
            let mut slot = ledger();
            let mut reference = NameKeyedLedger::new(PowerModel::nexus5());
            let mut now = SimTime::ZERO;
            for op in &ops {
                match *op {
                    Op::Start { app, hardware, newly, hold_ms, batch } => {
                        let app = &labels[app as usize];
                        let until = now + SimDuration::from_millis(hold_ms);
                        let (hw, newly) = (HardwareSet::from_bits(hardware), HardwareSet::from_bits(newly));
                        slot.start_task(app, hw, until, newly, batch);
                        reference.start_task(app, hw, until, newly, batch);
                    }
                    Op::Advance { ms, awake } => {
                        now += SimDuration::from_millis(ms);
                        slot.advance_to(now, awake);
                        reference.advance_to(now, awake);
                    }
                    Op::DropApp(app) => {
                        slot.drop_app_tasks(&labels[app as usize], now);
                        reference.drop_app_tasks(&labels[app as usize], now);
                    }
                    Op::DropAll => {
                        slot.drop_all_tasks(now);
                        reference.drop_all_tasks(now);
                    }
                    Op::Wake => {
                        slot.note_wake_transition();
                        reference.note_wake_transition();
                    }
                    Op::RoundTrip => {
                        let restored = crate::checkpoint::ledger_round_trip(&slot);
                        prop_assert_eq!(bits_of(&restored), bits_of(&slot));
                        slot = restored;
                    }
                }
                prop_assert_eq!(bits_of(&slot), reference_bits(&reference));
            }
            prop_assert_eq!(slot.interventions_per_app(), &reference.interventions);
        }
    }
}
