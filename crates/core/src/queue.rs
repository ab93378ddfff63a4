//! The alarm queue: entries ordered by scheduled delivery time.
//!
//! Android's `AlarmManager` keeps registered alarms "queued in the
//! increasing order of their delivery times" (§2.1). Alignment policies
//! scan this order in their *search phase*, and the simulator pops due
//! entries from the front.

use std::fmt;

use crate::alarm::{Alarm, AlarmId};
use crate::entry::{DeliveryDiscipline, QueueEntry};
use crate::time::SimTime;

/// A delivery-time-ordered queue of [`QueueEntry`] batches.
///
/// Ordering is stable: entries with equal delivery times keep their
/// insertion order, which makes the "first found, most preferable entry"
/// tie-break of §3.2.1 deterministic.
///
/// # Examples
///
/// ```
/// use simty_core::alarm::Alarm;
/// use simty_core::entry::DeliveryDiscipline;
/// use simty_core::queue::AlarmQueue;
/// use simty_core::time::{SimDuration, SimTime};
///
/// # fn main() -> Result<(), simty_core::error::BuildAlarmError> {
/// let mut queue = AlarmQueue::new();
/// let alarm = Alarm::builder("sync")
///     .nominal(SimTime::from_secs(60))
///     .repeating_dynamic(SimDuration::from_secs(60))
///     .build()?;
/// queue.insert_new_entry(alarm, DeliveryDiscipline::Window);
/// assert_eq!(queue.next_delivery_time(), Some(SimTime::from_secs(60)));
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Default)]
pub struct AlarmQueue {
    entries: Vec<QueueEntry>,
}

impl AlarmQueue {
    /// Creates an empty queue.
    pub fn new() -> Self {
        AlarmQueue::default()
    }

    /// The entries in increasing delivery-time order.
    pub fn entries(&self) -> &[QueueEntry] {
        &self.entries
    }

    /// Number of entries (batches).
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the queue holds no entries.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Total number of alarms across all entries.
    pub fn alarm_count(&self) -> usize {
        self.entries.iter().map(QueueEntry::len).sum()
    }

    /// The delivery time of the front entry.
    pub fn next_delivery_time(&self) -> Option<SimTime> {
        self.entries.first().map(QueueEntry::delivery_time)
    }

    /// Whether any entry contains the alarm.
    pub fn contains_alarm(&self, id: AlarmId) -> bool {
        self.entries.iter().any(|e| e.contains(id))
    }

    /// Finds the queue position of the entry holding `id`.
    pub fn position_of(&self, id: AlarmId) -> Option<usize> {
        self.entries.iter().position(|e| e.contains(id))
    }

    /// Wraps `alarm` in a fresh entry and inserts it in delivery-time
    /// order.
    pub fn insert_new_entry(&mut self, alarm: Alarm, discipline: DeliveryDiscipline) {
        self.insert_entry(QueueEntry::new(alarm, discipline));
    }

    /// Reserves capacity for at least `additional` more entries, so a
    /// subsequent insert cannot trigger a reallocation.
    pub fn reserve(&mut self, additional: usize) {
        self.entries.reserve(additional);
    }

    /// Inserts a prepared entry in delivery-time order (after any existing
    /// entries with the same delivery time).
    pub fn insert_entry(&mut self, entry: QueueEntry) {
        let t = entry.delivery_time();
        let pos = self.entries.partition_point(|e| e.delivery_time() <= t);
        self.entries.insert(pos, entry);
    }

    /// Adds `alarm` to the entry at `index`, repositioning the entry since
    /// its delivery time may have moved.
    ///
    /// The entry lands exactly where removing it and calling
    /// [`insert_entry`](Self::insert_entry) would put it: after every
    /// other entry with the same delivery time. A join can only move an
    /// entry later (every discipline derives the delivery time from the
    /// members' latest nominal time, which a join cannot lower), so the
    /// entry is updated in place and only the entries it passes shift
    /// down by one: one binary search over the tail and one rotation,
    /// instead of a remove and an insert that each shift the whole tail.
    ///
    /// # Panics
    ///
    /// Panics if `index` is out of bounds.
    pub fn add_to_entry(&mut self, index: usize, alarm: Alarm) {
        self.entries[index].push(alarm);
        let t = self.entries[index].delivery_time();
        debug_assert!(
            index == 0 || self.entries[index - 1].delivery_time() <= t,
            "a join moved its entry earlier"
        );
        let passed = self.entries[index + 1..].partition_point(|e| e.delivery_time() <= t);
        self.entries[index..=index + passed].rotate_left(1);
    }

    /// Removes the alarm with `id` from whichever entry holds it; drops
    /// the entry if it becomes empty, repositions it otherwise.
    pub fn remove_alarm(&mut self, id: AlarmId) -> Option<Alarm> {
        let idx = self.position_of(id)?;
        let mut entry = self.entries.remove(idx);
        let alarm = entry.remove(id);
        if !entry.is_empty() {
            self.insert_entry(entry);
        }
        alarm
    }

    /// Removes and returns the entry at `index` (used by NATIVE's
    /// realignment, §2.1).
    ///
    /// # Panics
    ///
    /// Panics if `index` is out of bounds.
    pub fn take_entry(&mut self, index: usize) -> QueueEntry {
        self.entries.remove(index)
    }

    /// Removes and returns every entry whose delivery time is at or before
    /// `now`, in delivery order.
    pub fn pop_due(&mut self, now: SimTime) -> Vec<QueueEntry> {
        let mut out = Vec::new();
        self.pop_due_into(now, &mut out);
        out
    }

    /// Like [`pop_due`](Self::pop_due), but appends into a caller-owned
    /// buffer. The simulator's delivery loop calls this every wakeup
    /// round; reusing one buffer there avoids a `Vec` allocation per
    /// round (most rounds pop zero or one entry).
    pub fn pop_due_into(&mut self, now: SimTime, out: &mut Vec<QueueEntry>) {
        let cut = self
            .entries
            .partition_point(|e| e.delivery_time() <= now);
        out.extend(self.entries.drain(..cut));
    }

    /// Iterates over the entries in delivery order.
    pub fn iter(&self) -> std::slice::Iter<'_, QueueEntry> {
        self.entries.iter()
    }
}

impl<'a> IntoIterator for &'a AlarmQueue {
    type Item = &'a QueueEntry;
    type IntoIter = std::slice::Iter<'a, QueueEntry>;

    fn into_iter(self) -> Self::IntoIter {
        self.entries.iter()
    }
}

impl fmt::Display for AlarmQueue {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "queue with {} entr(ies):", self.entries.len())?;
        for e in &self.entries {
            writeln!(f, "  {e}")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::time::SimDuration;

    fn alarm_at(label: &str, nominal_s: u64) -> Alarm {
        Alarm::builder(label)
            .nominal(SimTime::from_secs(nominal_s))
            .repeating_static(SimDuration::from_secs(600))
            .window_fraction(0.75)
            .build()
            .unwrap()
    }

    #[test]
    fn entries_stay_sorted_by_delivery_time() {
        let mut q = AlarmQueue::new();
        for t in [300, 100, 200] {
            q.insert_new_entry(alarm_at("a", t), DeliveryDiscipline::Window);
        }
        let times: Vec<_> = q.iter().map(|e| e.delivery_time().as_millis() / 1000).collect();
        assert_eq!(times, vec![100, 200, 300]);
    }

    #[test]
    fn equal_delivery_times_keep_insertion_order() {
        let mut q = AlarmQueue::new();
        let first = alarm_at("first", 100);
        let second = alarm_at("second", 100);
        let first_id = first.id();
        q.insert_new_entry(first, DeliveryDiscipline::Window);
        q.insert_new_entry(second, DeliveryDiscipline::Window);
        assert_eq!(q.entries()[0].alarms()[0].id(), first_id);
    }

    #[test]
    fn pop_due_takes_exactly_the_due_prefix() {
        let mut q = AlarmQueue::new();
        for t in [100, 200, 300] {
            q.insert_new_entry(alarm_at("a", t), DeliveryDiscipline::Window);
        }
        let due = q.pop_due(SimTime::from_secs(200));
        assert_eq!(due.len(), 2);
        assert_eq!(q.len(), 1);
        assert_eq!(q.next_delivery_time(), Some(SimTime::from_secs(300)));
        assert!(q.pop_due(SimTime::from_secs(250)).is_empty());
    }

    #[test]
    fn remove_alarm_drops_empty_entries() {
        let mut q = AlarmQueue::new();
        let a = alarm_at("a", 100);
        let id = a.id();
        q.insert_new_entry(a, DeliveryDiscipline::Window);
        assert!(q.contains_alarm(id));
        let removed = q.remove_alarm(id).unwrap();
        assert_eq!(removed.id(), id);
        assert!(q.is_empty());
        assert!(q.remove_alarm(id).is_none());
    }

    #[test]
    fn add_to_entry_repositions() {
        let mut q = AlarmQueue::new();
        q.insert_new_entry(alarm_at("early", 100), DeliveryDiscipline::Window);
        q.insert_new_entry(alarm_at("late", 400), DeliveryDiscipline::Window);
        // Joining a later alarm moves the first entry's window start to 150.
        q.add_to_entry(0, alarm_at("join", 150));
        assert_eq!(q.entries()[0].delivery_time(), SimTime::from_secs(150));
        assert_eq!(q.alarm_count(), 3);
        assert_eq!(q.len(), 2);
    }

    #[test]
    fn counts_and_lookup() {
        let mut q = AlarmQueue::new();
        let a = alarm_at("a", 100);
        let id = a.id();
        q.insert_new_entry(a, DeliveryDiscipline::Window);
        q.insert_new_entry(alarm_at("b", 200), DeliveryDiscipline::Window);
        assert_eq!(q.len(), 2);
        assert_eq!(q.alarm_count(), 2);
        assert_eq!(q.position_of(id), Some(0));
        assert_eq!((&q).into_iter().count(), 2);
    }

    use proptest::prelude::*;

    /// An alarm on a coarse grid of nominal times (so many entries tie on
    /// delivery time) with one of three window fractions.
    fn grid_alarm(label: &str, slot: u64, alpha_pick: u64) -> Alarm {
        Alarm::builder(label)
            .nominal(SimTime::from_secs(100 * (1 + slot)))
            .repeating_static(SimDuration::from_secs(600))
            .window_fraction([0.0, 0.25, 0.75][alpha_pick as usize])
            .grace_fraction(0.9)
            .build()
            .unwrap()
    }

    fn entry_order(q: &AlarmQueue) -> Vec<Vec<AlarmId>> {
        q.iter()
            .map(|e| e.alarms().iter().map(Alarm::id).collect())
            .collect()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// In-place repositioning gives exactly the entry order of the
        /// remove + `insert_entry` it replaces, under every discipline.
        #[test]
        fn add_to_entry_matches_remove_then_insert(
            seeds in prop::collection::vec((0u64..5, 0u64..3), 1..40),
            joins in prop::collection::vec((0u64..1000, 0u64..6, 0u64..3), 1..12),
            discipline_pick in 0u64..4,
        ) {
            let discipline = [
                DeliveryDiscipline::Window,
                DeliveryDiscipline::PerceptibilityAware,
                DeliveryDiscipline::Quantized { quantum: SimDuration::from_secs(250) },
                DeliveryDiscipline::Escalating {
                    base: SimDuration::from_secs(120),
                    max_quantum: SimDuration::from_secs(960),
                    windows_per_level: 2,
                },
            ][discipline_pick as usize];
            let mut q = AlarmQueue::new();
            for (i, &(slot, alpha)) in seeds.iter().enumerate() {
                q.insert_new_entry(grid_alarm(&format!("s{i}"), slot, alpha), discipline);
            }
            let mut reference = q.clone();
            for (i, &(pick, slot, alpha)) in joins.iter().enumerate() {
                let index = pick as usize % q.len();
                let alarm = grid_alarm(&format!("j{i}"), slot, alpha);
                let mut entry = reference.take_entry(index);
                entry.push(alarm.clone());
                reference.insert_entry(entry);
                q.add_to_entry(index, alarm);
                prop_assert_eq!(entry_order(&q), entry_order(&reference));
            }
            let times: Vec<SimTime> = q.iter().map(QueueEntry::delivery_time).collect();
            prop_assert!(times.windows(2).all(|w| w[0] <= w[1]));
        }
    }
}
