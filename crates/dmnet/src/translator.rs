//! The Address translator (paper §V-A2, software-based translation).
//!
//! "All processes' translation entries are stored in a single in-memory hash
//! table" mapping DM virtual addresses to pinned-page addresses. The second,
//! MMU-based translation is implicit (host virtual → physical) and free in
//! the model. Lookup counters feed the paper's 0.17%-of-access-time
//! measurement (§V-A2).

use dmcommon::GlobalPid;
use simcore::FastMap;

/// Pinned-page index inside the DM server.
pub type PageIdx = u32;

/// Hash-table translation from `(pid, vpn)` to pinned page.
#[derive(Default)]
pub struct Translator {
    table: FastMap<(u32, u64), PageIdx>,
    lookups: u64,
    misses: u64,
}

impl Translator {
    /// Create an empty translator.
    pub fn new() -> Translator {
        Translator::default()
    }

    /// Translate a virtual page number for a process.
    pub fn lookup(&mut self, pid: GlobalPid, vpn: u64) -> Option<PageIdx> {
        self.lookups += 1;
        let r = self.table.get(&(pid.0, vpn)).copied();
        if r.is_none() {
            self.misses += 1;
        }
        r
    }

    /// Insert or replace a translation entry.
    pub fn insert(&mut self, pid: GlobalPid, vpn: u64, page: PageIdx) {
        self.table.insert((pid.0, vpn), page);
    }

    /// Remove a translation entry, returning the page it pointed to.
    pub fn remove(&mut self, pid: GlobalPid, vpn: u64) -> Option<PageIdx> {
        self.table.remove(&(pid.0, vpn))
    }

    /// Total lookups performed (for the translation-overhead experiment).
    pub fn lookups(&self) -> u64 {
        self.lookups
    }

    /// Lookups that missed (page faults handed to the Page manager).
    pub fn misses(&self) -> u64 {
        self.misses
    }

    /// Iterate over live entries (tests / invariant checks).
    pub fn iter(&self) -> impl Iterator<Item = ((u32, u64), PageIdx)> + '_ {
        self.table.iter().map(|(&k, &v)| (k, v))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_lookup_remove() {
        let mut t = Translator::new();
        let pid = GlobalPid(3);
        assert_eq!(t.lookup(pid, 5), None);
        t.insert(pid, 5, 42);
        assert_eq!(t.lookup(pid, 5), Some(42));
        assert_eq!(t.remove(pid, 5), Some(42));
        assert_eq!(t.lookup(pid, 5), None);
        assert_eq!(t.iter().count(), 0);
    }

    #[test]
    fn processes_are_isolated() {
        let mut t = Translator::new();
        t.insert(GlobalPid(1), 7, 10);
        t.insert(GlobalPid(2), 7, 20);
        assert_eq!(t.lookup(GlobalPid(1), 7), Some(10));
        assert_eq!(t.lookup(GlobalPid(2), 7), Some(20));
    }

    #[test]
    fn counters_track_lookups_and_misses() {
        let mut t = Translator::new();
        t.insert(GlobalPid(1), 1, 1);
        t.lookup(GlobalPid(1), 1);
        t.lookup(GlobalPid(1), 2);
        assert_eq!(t.lookups(), 2);
        assert_eq!(t.misses(), 1);
    }
}
