//! Scalar reference implementation of the set-associative cache array,
//! a test helper of the `packed_vs_reference` differential fuzz.
//!
//! [`RefCacheArray`] is the pre-tag-plane `CacheArray` preserved verbatim:
//! one `RefLine` struct per way, per-way linear probe, explicit
//! first-invalid-else-LRU victim scan. It is deliberately the *simple*
//! formulation of the semantics — every behavior of the packed
//! [`CacheArray`](gaas_cache::CacheArray) (hit/miss, victim choice, dirty
//! and write-only propagation, subblock valid bits, resident-refill
//! reset) must be reproducible here, and the fuzz drives both
//! implementations access-for-access to prove it. It is not part of the
//! crate's API and not used on any simulation path.

use gaas_cache::{CacheGeometry, Evicted};
use gaas_trace::PhysAddr;

/// State of one cache line in the reference model.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RefLine {
    /// Line-aligned base word address of the cached line.
    pub base: PhysAddr,
    /// Tag/data valid.
    pub valid: bool,
    /// Dirty/written flag (see [`gaas_cache::Line::dirty`]).
    pub dirty: bool,
    /// The paper's write-only mark.
    pub write_only: bool,
    /// Per-word subblock valid bits.
    pub subblock_valid: u32,
    /// LRU timestamp (larger = more recently used).
    lru: u64,
}

impl RefLine {
    fn invalid() -> Self {
        RefLine {
            base: PhysAddr::new(0),
            valid: false,
            dirty: false,
            write_only: false,
            subblock_valid: 0,
            lru: 0,
        }
    }
}

/// The scalar reference cache array (see the module docs).
#[derive(Debug, Clone)]
pub struct RefCacheArray {
    geom: CacheGeometry,
    lines: Vec<RefLine>,
    clock: u64,
}

impl RefCacheArray {
    /// Creates an empty (all-invalid) array with the given geometry.
    pub fn new(geom: CacheGeometry) -> Self {
        let n = (geom.n_sets() * geom.assoc() as u64) as usize;
        RefCacheArray {
            geom,
            lines: vec![RefLine::invalid(); n],
            clock: 0,
        }
    }

    fn set_range(&self, set: u64) -> std::ops::Range<usize> {
        let a = self.geom.assoc() as usize;
        let start = set as usize * a;
        start..start + a
    }

    fn probe_idx(&self, addr: PhysAddr) -> Option<usize> {
        let base = self.geom.line_base(addr);
        let set = self.geom.set_of(addr);
        if self.geom.assoc() == 1 {
            let i = set as usize;
            let l = &self.lines[i];
            return (l.valid && l.base == base).then_some(i);
        }
        self.set_range(set)
            .find(|&i| self.lines[i].valid && self.lines[i].base == base)
    }

    /// True when `addr`'s line is resident. Does not update LRU.
    pub fn contains(&self, addr: PhysAddr) -> bool {
        self.probe_idx(addr).is_some()
    }

    /// Returns a copy of the resident line for `addr`, if any. Does not
    /// update LRU.
    pub fn peek(&self, addr: PhysAddr) -> Option<RefLine> {
        self.probe_idx(addr).map(|i| self.lines[i])
    }

    /// Looks up `addr`; on a tag match, marks the line most-recently-used
    /// and returns a mutable reference to it.
    pub fn touch(&mut self, addr: PhysAddr) -> Option<&mut RefLine> {
        let idx = self.probe_idx(addr)?;
        self.clock += 1;
        self.lines[idx].lru = self.clock;
        Some(&mut self.lines[idx])
    }

    /// Allocates a line for `addr` exactly as
    /// [`CacheArray::fill`](super::CacheArray::fill) specifies, returning
    /// the displaced line, if any.
    pub fn fill(&mut self, addr: PhysAddr) -> Option<Evicted> {
        let base = self.geom.line_base(addr);
        let full_mask = self.geom.full_subblock_mask();
        self.clock += 1;
        let clock = self.clock;

        if let Some(idx) = self.probe_idx(addr) {
            let line = &mut self.lines[idx];
            line.dirty = false;
            line.write_only = false;
            line.subblock_valid = full_mask;
            line.lru = clock;
            return None;
        }

        let set = self.geom.set_of(addr);
        let range = self.set_range(set);
        // Prefer an invalid way; otherwise evict the LRU way.
        let victim = range
            .clone()
            .find(|&i| !self.lines[i].valid)
            .unwrap_or_else(|| {
                range
                    .min_by_key(|&i| self.lines[i].lru)
                    .expect("set has at least one way")
            });

        let old = self.lines[victim];
        let evicted = old.valid.then_some(Evicted {
            base: old.base,
            dirty: old.dirty,
            write_only: old.write_only,
        });
        self.lines[victim] = RefLine {
            base,
            valid: true,
            dirty: false,
            write_only: false,
            subblock_valid: full_mask,
            lru: clock,
        };
        evicted
    }

    /// Invalidates `addr`'s line if resident; returns the line that was
    /// invalidated.
    pub fn invalidate(&mut self, addr: PhysAddr) -> Option<RefLine> {
        let idx = self.probe_idx(addr)?;
        let old = self.lines[idx];
        self.lines[idx] = RefLine::invalid();
        Some(old)
    }

    /// Number of valid lines currently resident.
    pub fn occupancy(&self) -> usize {
        self.lines.iter().filter(|l| l.valid).count()
    }

    /// Snapshot of every valid line's architectural state, sorted,
    /// directly comparable with
    /// [`CacheArray::content_snapshot`](super::CacheArray::content_snapshot).
    pub fn content_snapshot(&self) -> Vec<(u64, bool, bool, u32)> {
        let mut v: Vec<_> = self
            .lines
            .iter()
            .filter(|l| l.valid)
            .map(|l| (l.base.word(), l.dirty, l.write_only, l.subblock_valid))
            .collect();
        v.sort_unstable();
        v
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pa(w: u64) -> PhysAddr {
        PhysAddr::new(w)
    }

    /// The reference model reproduces the documented legacy behaviors the
    /// packed array is checked against.
    #[test]
    fn reference_semantics_smoke() {
        let mut c = RefCacheArray::new(CacheGeometry::new(16, 4, 2).expect("valid"));
        assert!(!c.contains(pa(0)));
        assert_eq!(c.fill(pa(0)), None);
        c.fill(pa(8)); // same set
        c.touch(pa(0)); // MRU
        let ev = c.fill(pa(16)).expect("evicts LRU way");
        assert_eq!(ev.base, pa(8));
        c.touch(pa(0)).expect("resident").dirty = true;
        assert!(c.peek(pa(0)).expect("resident").dirty);
        assert_eq!(c.fill(pa(1)), None, "resident refill resets, no evict");
        assert!(!c.peek(pa(0)).expect("resident").dirty);
        assert_eq!(c.occupancy(), 2);
        assert_eq!(c.invalidate(pa(0)).expect("resident").base, pa(0));
        assert_eq!(c.occupancy(), 1);
        assert_eq!(c.content_snapshot().len(), 1);
    }
}
