//! What the store should hold: every version ever put under each key, as
//! fingerprints, plus whether the key is live. The integrity check of a
//! measured GET and the post-restart check both judge returned bytes
//! against it.

use crate::gen::{fill_page, fingerprint};

/// Expected state of one key.
#[derive(Default)]
struct KeyState {
    /// Fingerprints of every version put, oldest first.
    history: Vec<u64>,
    /// Whether the last successful operation left the key present.
    live: bool,
    /// A put of this key failed: the store may hold the old or the new
    /// bytes, so a GET is only held to "some version ever put".
    uncertain: bool,
}

/// Verdict on one GET.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// Exactly what the last operation left.
    Exact,
    /// A miss where the key is not live.
    Absent,
    /// Bytes of an older version of a live key.
    Stale,
    /// Bytes of a version of a key that was deleted.
    Resurrected,
    /// A miss where the key is live.
    Lost,
    /// Bytes never put under this key.
    Corrupt,
}

pub struct Model {
    seed: u64,
    keys: Vec<KeyState>,
}

impl Model {
    pub fn new(seed: u64, keys: usize) -> Model {
        Model {
            seed,
            keys: (0..keys).map(|_| KeyState::default()).collect(),
        }
    }

    pub fn len(&self) -> usize {
        self.keys.len()
    }

    /// Write the next version of `key` into `page` and record it as put.
    pub fn next_put(&mut self, key: u64, page: &mut [u8]) {
        let state = &mut self.keys[key as usize];
        fill_page(self.seed, key, state.history.len() as u32, page);
        state.history.push(fingerprint(page));
    }

    /// Outcome of the put recorded by the last [`Model::next_put`].
    pub fn put_done(&mut self, key: u64, ok: bool) {
        let state = &mut self.keys[key as usize];
        if ok {
            state.live = true;
            state.uncertain = false;
        } else {
            state.uncertain = true;
        }
    }

    pub fn delete(&mut self, key: u64) {
        let state = &mut self.keys[key as usize];
        state.live = false;
        state.uncertain = false;
    }

    /// Number of versions of `key` put so far.
    pub fn versions(&self, key: u64) -> u32 {
        self.keys[key as usize].history.len() as u32
    }

    /// Regenerate version `version` of `key` into `page`.
    pub fn page(&self, key: u64, version: u32, page: &mut [u8]) {
        fill_page(self.seed, key, version, page);
    }

    pub fn live_keys(&self) -> usize {
        self.keys.iter().filter(|s| s.live).count()
    }

    /// Judge what a GET of `key` returned (`None` for a miss).
    pub fn judge(&self, key: u64, got: Option<&[u8]>) -> Verdict {
        let state = &self.keys[key as usize];
        let Some(bytes) = got else {
            return if state.live && !state.uncertain {
                Verdict::Lost
            } else {
                Verdict::Absent
            };
        };
        let fp = fingerprint(bytes);
        let Some(at) = state.history.iter().rposition(|&h| h == fp) else {
            return Verdict::Corrupt;
        };
        if !state.live && !state.uncertain {
            Verdict::Resurrected
        } else if at + 1 == state.history.len() || state.uncertain {
            Verdict::Exact
        } else {
            Verdict::Stale
        }
    }

    /// What a GET of `key` must return now, on the live path.
    pub fn expect(&self, key: u64) -> Expect {
        let state = &self.keys[key as usize];
        match state.history.last() {
            _ if state.uncertain => Expect::AnyVersion,
            Some(&fp) if state.live => Expect::Page(fp),
            _ => Expect::Missing,
        }
    }

    /// Whether `got` meets `expect`, taken for `key` earlier (a pipelined
    /// GET is judged against the state at the time it was sent).
    pub fn admits(&self, key: u64, expect: Expect, got: Option<&[u8]>) -> bool {
        match (expect, got) {
            (Expect::Page(fp), Some(bytes)) => fingerprint(bytes) == fp,
            (Expect::Missing | Expect::AnyVersion, None) => true,
            (Expect::AnyVersion, Some(bytes)) => self.keys[key as usize]
                .history
                .contains(&fingerprint(bytes)),
            _ => false,
        }
    }

    /// The live-path integrity check: a GET must return exactly what the
    /// last operation on the key left.
    pub fn check(&self, key: u64, got: Option<&[u8]>) -> bool {
        self.admits(key, self.expect(key), got)
    }
}

/// What a live-path GET must return.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Expect {
    /// The page with this fingerprint.
    Page(u64),
    /// A miss.
    Missing,
    /// A miss or any version ever put (after a failed put).
    AnyVersion,
}

/// Counts from the post-restart sweep. The contract after a reopen is
/// weaker than on the live path: a GET may miss, or return any version
/// ever put under the key; only bytes never put fail it.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct RestartSweep {
    pub exact: u64,
    pub absent: u64,
    pub stale: u64,
    pub resurrected: u64,
    pub lost: u64,
    pub corrupt: u64,
}

impl RestartSweep {
    pub fn add(&mut self, v: Verdict) {
        match v {
            Verdict::Exact => self.exact += 1,
            Verdict::Absent => self.absent += 1,
            Verdict::Stale => self.stale += 1,
            Verdict::Resurrected => self.resurrected += 1,
            Verdict::Lost => self.lost += 1,
            Verdict::Corrupt => self.corrupt += 1,
        }
    }

    pub fn passed(&self) -> bool {
        self.corrupt == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::PAGE;

    fn put(m: &mut Model, key: u64) -> Vec<u8> {
        let mut page = vec![0u8; PAGE];
        m.next_put(key, &mut page);
        m.put_done(key, true);
        page
    }

    #[test]
    fn integrity_check_fails_on_one_flipped_byte() {
        let mut m = Model::new(4, 8);
        let mut page = put(&mut m, 3);
        assert!(m.check(3, Some(&page)));
        page[1234] ^= 0x40;
        assert!(!m.check(3, Some(&page)));
        assert_eq!(m.judge(3, Some(&page)), Verdict::Corrupt);
    }

    #[test]
    fn live_check_rejects_stale_lost_and_resurrected() {
        let mut m = Model::new(4, 8);
        let v0 = put(&mut m, 1);
        let v1 = put(&mut m, 1);
        assert!(m.check(1, Some(&v1)));
        assert!(!m.check(1, Some(&v0)), "an older version is stale");
        assert!(!m.check(1, None), "a live key must not miss");
        m.delete(1);
        assert!(m.check(1, None));
        assert!(!m.check(1, Some(&v1)), "a deleted key must not come back");
        assert!(m.check(2, None), "a never-put key misses");
    }

    #[test]
    fn restart_check_accepts_older_versions_but_not_foreign_bytes() {
        let mut m = Model::new(4, 8);
        let v0 = put(&mut m, 5);
        let _v1 = put(&mut m, 5);
        let other = put(&mut m, 6);
        let mut sweep = RestartSweep::default();
        sweep.add(m.judge(5, Some(&v0)));
        sweep.add(m.judge(5, None));
        assert!(sweep.passed());
        assert_eq!((sweep.stale, sweep.lost), (1, 1));
        m.delete(6);
        sweep.add(m.judge(6, Some(&other)));
        assert_eq!(sweep.resurrected, 1);
        assert!(sweep.passed());
        sweep.add(m.judge(5, Some(&other)));
        assert!(!sweep.passed(), "bytes never put under key 5 must fail");
    }

    #[test]
    fn failed_put_accepts_either_version() {
        let mut m = Model::new(4, 8);
        let old = put(&mut m, 2);
        let mut new = vec![0u8; PAGE];
        m.next_put(2, &mut new);
        m.put_done(2, false);
        assert!(m.check(2, Some(&old)));
        assert!(m.check(2, Some(&new)));
    }
}
