//! The sharing directory over the shared L2: which cores hold which
//! L1-D lines, and in which MESI state.
//!
//! The directory is the snoop *filter* of the CMP design: because every
//! L1 sits in front of one shared L2, the L2 controller can track the
//! per-line sharer set and answer most misses without broadcasting at
//! all. Only references that actually involve a remote copy (a remote
//! Modified owner to demote, Shared copies to invalidate) occupy the
//! snoop bus — a disjoint multiprogrammed workload on N cores therefore
//! generates *zero* coherence traffic, which is what anchors the
//! sharing-sweep figures (the coherence CPI component scales with the
//! sharing knobs, not with core count alone).
//!
//! Directory entries can go stale in one direction only: a core may
//! silently evict a line (capacity victim) that the directory still
//! records as valid. The engine therefore *heals lazily* — every valid
//! record an access reads is cross-checked against residency in the
//! owning core's array, and a stale bit is cleared for free (a real
//! directory learns the same thing from the core's no-snoop-hit
//! response). An Invalid record is trusted as it is, so its core's
//! array is never probed.

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

use gaas_trace::PhysAddr;

use crate::mesi::MesiState;

/// One line's recorded MESI state in each of up to
/// [`gaas_sim::MAX_CORES`] cores' L1-Ds (possibly stale; see
/// [`Sharers::heal`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Sharers([MesiState; gaas_sim::MAX_CORES as usize]);

impl Default for Sharers {
    fn default() -> Self {
        Sharers([MesiState::Invalid; gaas_sim::MAX_CORES as usize])
    }
}

impl Sharers {
    /// The recorded state in `core`'s L1-D.
    pub fn get(&self, core: usize) -> MesiState {
        self.0[core]
    }

    /// Records `state` for `core`'s L1-D.
    pub fn set(&mut self, core: usize, state: MesiState) {
        self.0[core] = state;
    }

    /// Reconciles `core`'s recorded state with actual residency: a line
    /// the core no longer holds (silent eviction) is healed to Invalid.
    /// `resident` probes the core's array, and only when the record is
    /// valid: healing an Invalid record is a no-op. Returns the
    /// trustworthy state.
    pub fn heal(&mut self, core: usize, resident: impl FnOnce() -> bool) -> MesiState {
        let s = self.0[core];
        if s != MesiState::Invalid && !resident() {
            self.0[core] = MesiState::Invalid;
            return MesiState::Invalid;
        }
        s
    }

    /// Whether no core holds the line.
    pub fn is_empty(&self) -> bool {
        self.0.iter().all(|&s| s == MesiState::Invalid)
    }
}

/// Multiplicative hashing of a line address: one multiply, then the high
/// half folded into the low half, where the map takes its bucket index
/// (line addresses are aligned, so their low bits are constant). Keys
/// are simulated physical addresses and nothing iterates the map, so
/// neither collision resistance nor ordering is needed.
#[derive(Default)]
struct LineHasher(u64);

impl Hasher for LineHasher {
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 << 8) | u64::from(b);
        }
    }

    fn write_u64(&mut self, word: u64) {
        self.0 = word;
    }

    fn finish(&self) -> u64 {
        let h = self.0.wrapping_mul(0x9E37_79B9_7F4A_7C15);
        h ^ (h >> 32)
    }
}

/// Per-line [`Sharers`], keyed by line-aligned base word address. An
/// access reads its line's row once ([`Directory::row`]), works on the
/// copy, and writes it back once if it changed ([`Directory::set_row`]).
#[derive(Debug, Default)]
pub struct Directory {
    entries: HashMap<u64, Sharers, BuildHasherDefault<LineHasher>>,
}

impl Directory {
    /// An empty directory (every line Invalid everywhere).
    pub fn new() -> Self {
        Self::default()
    }

    /// The recorded states of `line` (all Invalid when untracked).
    pub fn row(&self, line: PhysAddr) -> Sharers {
        self.entries.get(&line.word()).copied().unwrap_or_default()
    }

    /// Records `row` for `line`, dropping the entry once no core holds
    /// the line (keeps the map proportional to the *live* shared working
    /// set).
    pub fn set_row(&mut self, line: PhysAddr, row: Sharers) {
        if row.is_empty() {
            self.entries.remove(&line.word());
        } else {
            self.entries.insert(line.word(), row);
        }
    }

    /// Number of lines with at least one (possibly stale) valid copy.
    pub fn tracked_lines(&self) -> usize {
        self.entries.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    use std::collections::HashMap;

    use gaas_trace::rng::SmallRng;

    fn line(w: u64) -> PhysAddr {
        PhysAddr::new(w)
    }

    /// Sets one core's state with a read-modify-write of the row.
    fn set(d: &mut Directory, l: PhysAddr, core: usize, state: MesiState) {
        let mut row = d.row(l);
        row.set(core, state);
        d.set_row(l, row);
    }

    #[test]
    fn default_state_is_invalid() {
        let d = Directory::new();
        assert_eq!(d.row(line(64)), Sharers::default());
        assert_eq!(d.tracked_lines(), 0);
    }

    #[test]
    fn set_and_read_back() {
        let mut d = Directory::new();
        set(&mut d, line(64), 1, MesiState::Exclusive);
        set(&mut d, line(64), 3, MesiState::Shared);
        assert_eq!(d.row(line(64)).get(1), MesiState::Exclusive);
        assert_eq!(d.row(line(64)).get(3), MesiState::Shared);
        assert_eq!(d.row(line(64)).get(0), MesiState::Invalid);
        assert_eq!(d.tracked_lines(), 1);
    }

    #[test]
    fn entry_dropped_when_last_sharer_invalidates() {
        let mut d = Directory::new();
        set(&mut d, line(128), 0, MesiState::Shared);
        set(&mut d, line(128), 2, MesiState::Shared);
        set(&mut d, line(128), 0, MesiState::Invalid);
        assert_eq!(d.tracked_lines(), 1, "core 2 still holds it");
        set(&mut d, line(128), 2, MesiState::Invalid);
        assert_eq!(d.tracked_lines(), 0, "entry reclaimed");
    }

    #[test]
    fn heal_clears_stale_bits() {
        let mut d = Directory::new();
        set(&mut d, line(64), 0, MesiState::Modified);
        // The core silently evicted the line: residency says gone.
        let mut row = d.row(line(64));
        assert_eq!(row.heal(0, || false), MesiState::Invalid);
        d.set_row(line(64), row);
        assert_eq!(d.row(line(64)).get(0), MesiState::Invalid);
        assert_eq!(d.tracked_lines(), 0);
    }

    #[test]
    fn heal_trusts_resident_lines() {
        let mut d = Directory::new();
        set(&mut d, line(64), 0, MesiState::Shared);
        let mut row = d.row(line(64));
        assert_eq!(row.heal(0, || true), MesiState::Shared);
        assert_eq!(
            row.heal(1, || panic!("an Invalid record is never probed")),
            MesiState::Invalid
        );
        d.set_row(line(64), row);
        assert_eq!(d.tracked_lines(), 1);
    }

    /// The per-core directory the row API replaced: a map from line to
    /// states with one lookup per read, heal or set.
    #[derive(Default)]
    struct PerCoreMap {
        entries: HashMap<u64, [MesiState; gaas_sim::MAX_CORES as usize]>,
    }

    impl PerCoreMap {
        fn state(&self, line: PhysAddr, core: usize) -> MesiState {
            self.entries
                .get(&line.word())
                .map_or(MesiState::Invalid, |e| e[core])
        }

        fn set(&mut self, line: PhysAddr, core: usize, state: MesiState) {
            if state == MesiState::Invalid {
                if let Some(e) = self.entries.get_mut(&line.word()) {
                    e[core] = MesiState::Invalid;
                    if e.iter().all(|&s| s == MesiState::Invalid) {
                        self.entries.remove(&line.word());
                    }
                }
                return;
            }
            self.entries.entry(line.word()).or_default()[core] = state;
        }

        fn heal(&mut self, line: PhysAddr, core: usize, resident: bool) -> MesiState {
            let s = self.state(line, core);
            if s != MesiState::Invalid && !resident {
                self.set(line, core, MesiState::Invalid);
                return MesiState::Invalid;
            }
            s
        }
    }

    /// A seeded op stream, grouped into accesses the way the engine
    /// makes them: each access reads one line's row, applies a few reads,
    /// heals and sets to the copy, and writes it back once if it changed.
    /// The per-core map applies the same ops one lookup at a time. Every
    /// op must return the same state, and after every access both must
    /// agree on every core's state of that line and on the line count.
    #[test]
    fn row_access_matches_the_per_core_map() {
        const STATES: [MesiState; 4] = [
            MesiState::Modified,
            MesiState::Exclusive,
            MesiState::Shared,
            MesiState::Invalid,
        ];
        let cores = gaas_sim::MAX_CORES as usize;
        let mut rng = SmallRng::seed_from_u64(0xD1_2EC7);
        let mut d = Directory::new();
        let mut old = PerCoreMap::default();
        let (mut healed, mut peak) = (0, 0);
        for access in 0..20_000 {
            // Few lines, so rows fill, drain and refill many times.
            let l = line(rng.gen_range(0..24u64) * 8);
            let recorded = d.row(l);
            let mut row = recorded;
            for _ in 0..rng.gen_range(1..=4usize) {
                let core = rng.gen_range(0..cores);
                match rng.gen_range(0..3u32) {
                    0 => assert_eq!(row.get(core), old.state(l, core), "access {access}"),
                    1 => {
                        let resident = rng.gen_bool(0.5);
                        let before = old.state(l, core);
                        let s = old.heal(l, core, resident);
                        healed += usize::from(s != before);
                        assert_eq!(row.heal(core, || resident), s, "access {access}");
                    }
                    _ => {
                        // Invalid half the time, so entries drain.
                        let state = if rng.gen_bool(0.5) {
                            MesiState::Invalid
                        } else {
                            STATES[rng.gen_range(0..3usize)]
                        };
                        old.set(l, core, state);
                        row.set(core, state);
                    }
                }
            }
            if row != recorded {
                d.set_row(l, row);
            }
            for core in 0..cores {
                assert_eq!(d.row(l).get(core), old.state(l, core), "access {access}");
            }
            assert_eq!(d.tracked_lines(), old.entries.len(), "access {access}");
            peak = peak.max(d.tracked_lines());
        }
        assert!(healed > 1_000, "the stream heals stale records: {healed}");
        assert!(peak > 12, "the stream tracks many lines at once: {peak}");
    }
}
