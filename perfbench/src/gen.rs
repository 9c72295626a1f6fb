//! Deterministic inputs: 4 KB pages keyed by (seed, key, version), a
//! zipf key sampler, the op-mix generator, and the page fingerprint the
//! integrity checks compare.

use cc_util::SplitMix64;

/// Page size every workload stores.
pub const PAGE: usize = 4096;

/// One 64-bit value from several, well mixed (SplitMix64 finaliser).
pub fn mix(parts: &[u64]) -> u64 {
    let mut h = 0x243F_6A88_85A3_08D3u64;
    for &p in parts {
        h = (h ^ p).wrapping_add(0x9E37_79B9_7F4A_7C15);
        h = (h ^ (h >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        h = (h ^ (h >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        h ^= h >> 31;
    }
    h
}

/// The page classes the generator mixes, so both codecs (LZRW1 and BDI)
/// and the 4:3 threshold path do work.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Class {
    /// Zero page with sparse nonzero words (never same-filled).
    NearZero,
    /// Small integers, one per 8-byte word.
    NarrowInt,
    /// Pointer-like words clustered near one base.
    BaseDelta,
    /// Byte-regular text drawn from a small dictionary.
    Text,
    /// Incompressible noise: fails the 4:3 threshold.
    Noise,
}

/// The class of `key`: about 15/25/25/20/15 percent. It does not depend
/// on the seed, so every seed's hot set has the same class mix; the seed
/// changes page bytes and op order only.
pub fn class_of(key: u64) -> Class {
    match mix(&[key, 0xC1A5]) % 20 {
        0..=2 => Class::NearZero,
        3..=7 => Class::NarrowInt,
        8..=12 => Class::BaseDelta,
        13..=16 => Class::Text,
        _ => Class::Noise,
    }
}

const WORDS: [&[u8]; 16] = [
    b"page ",
    b"cache ",
    b"memory ",
    b"the ",
    b"compressed ",
    b"of ",
    b"backing ",
    b"store ",
    b"frame ",
    b"and ",
    b"fault ",
    b"swap ",
    b"a ",
    b"sprite ",
    b"kernel ",
    b"to ",
];

/// Fill `buf` (one page) with the content of `key` at `version`.
pub fn fill_page(seed: u64, key: u64, version: u32, buf: &mut [u8]) {
    let mut rng = SplitMix64::new(mix(&[seed, key, version as u64]));
    match class_of(key) {
        Class::NearZero => {
            buf.fill(0);
            let stride = 32 + rng.gen_index(64);
            for (i, w) in buf.chunks_exact_mut(8).enumerate() {
                if i % stride == 0 {
                    w.copy_from_slice(&(rng.next_u64() >> 40).to_le_bytes());
                }
            }
        }
        Class::NarrowInt => {
            let span = 16 + rng.gen_range(240);
            for w in buf.chunks_exact_mut(8) {
                w.copy_from_slice(&rng.gen_range(span).to_le_bytes());
            }
        }
        Class::BaseDelta => {
            let base = 0x7F00_0000_0000u64 ^ (rng.next_u64() & 0xFF_FFFF_F000);
            for w in buf.chunks_exact_mut(8) {
                w.copy_from_slice(&(base + rng.gen_range(120)).to_le_bytes());
            }
        }
        Class::Text => {
            let mut at = 0;
            while at < buf.len() {
                let word = WORDS[rng.gen_index(WORDS.len())];
                let n = word.len().min(buf.len() - at);
                buf[at..at + n].copy_from_slice(&word[..n]);
                at += n;
            }
        }
        Class::Noise => {
            for w in buf.chunks_exact_mut(8) {
                w.copy_from_slice(&rng.next_u64().to_le_bytes());
            }
        }
    }
}

/// Fingerprint of a page. Each 8-byte word passes through an xor and a
/// multiply by an odd constant, both bijective, so two pages that differ
/// in any one word (in particular, one flipped byte) always differ here.
pub fn fingerprint(page: &[u8]) -> u64 {
    let mut h = 0xCBF2_9CE4_8422_2325u64 ^ page.len() as u64;
    for w in page.chunks(8) {
        let mut word = [0u8; 8];
        word[..w.len()].copy_from_slice(w);
        h = (h ^ u64::from_le_bytes(word)).wrapping_mul(0x0000_0100_0000_01B3);
    }
    mix(&[h])
}

/// Zipf-distributed keys over `0..n`: key `k` has weight `1 / (k+1)^s`.
/// Page classes are hashed from the key, so hot keys land in every class.
pub struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    pub fn new(n: usize, s: f64) -> Zipf {
        let mut cdf = Vec::with_capacity(n);
        let mut sum = 0.0;
        for r in 0..n {
            sum += 1.0 / ((r + 1) as f64).powf(s);
            cdf.push(sum);
        }
        for c in &mut cdf {
            *c /= sum;
        }
        Zipf { cdf }
    }

    pub fn sample(&self, rng: &mut SplitMix64) -> u64 {
        let u = rng.gen_f64();
        self.cdf
            .partition_point(|&c| c <= u)
            .min(self.cdf.len() - 1) as u64
    }
}

/// Operation kinds the workloads issue.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    Put,
    Get,
    Del,
}

impl Kind {
    pub const ALL: [Kind; 3] = [Kind::Put, Kind::Get, Kind::Del];

    pub fn name(self) -> &'static str {
        match self {
            Kind::Put => "put",
            Kind::Get => "get",
            Kind::Del => "del",
        }
    }
}

/// The closed-loop op stream: a put/get/del mix over zipf keys. Two
/// generators built from the same arguments yield the same stream.
pub struct OpGen {
    rng: SplitMix64,
    zipf: Zipf,
    put_pct: u64,
    get_pct: u64,
}

impl OpGen {
    /// `put_pct` and `get_pct` are percentages; deletes take the rest.
    pub fn new(
        seed: u64,
        stream: u64,
        keys: usize,
        zipf_s: f64,
        put_pct: u64,
        get_pct: u64,
    ) -> OpGen {
        OpGen {
            rng: SplitMix64::new(mix(&[seed, stream, 0x0965])),
            zipf: Zipf::new(keys, zipf_s),
            put_pct,
            get_pct,
        }
    }

    pub fn next_op(&mut self) -> (Kind, u64) {
        let roll = self.rng.gen_range(100);
        let kind = if roll < self.put_pct {
            Kind::Put
        } else if roll < self.put_pct + self.get_pct {
            Kind::Get
        } else {
            Kind::Del
        };
        (kind, self.zipf.sample(&mut self.rng))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pages_are_deterministic_per_seed_key_and_version() {
        let (mut a, mut b) = (vec![0u8; PAGE], vec![0u8; PAGE]);
        for key in 0..200 {
            fill_page(7, key, 3, &mut a);
            fill_page(7, key, 3, &mut b);
            assert_eq!(a, b, "key {key}");
            fill_page(7, key, 4, &mut b);
            assert_ne!(a, b, "a new version must change key {key}");
            fill_page(8, key, 3, &mut b);
            assert_ne!(a, b, "another seed must change key {key}");
        }
    }

    #[test]
    fn every_class_appears_and_none_is_same_filled() {
        let mut page = vec![0u8; PAGE];
        let mut seen = [false; 5];
        for key in 0..400 {
            let class = class_of(key);
            seen[class as usize] = true;
            fill_page(1, key, 0, &mut page);
            assert!(
                page.chunks_exact(8).any(|w| w != &page[..8]),
                "key {key} ({class:?}) is same-filled"
            );
        }
        assert!(seen.iter().all(|&s| s), "{seen:?}");
    }

    #[test]
    fn zipf_and_op_streams_are_deterministic_per_seed() {
        let stream = |seed| {
            let mut g = OpGen::new(seed, 1, 1024, 0.99, 20, 70);
            (0..2000).map(|_| g.next_op()).collect::<Vec<_>>()
        };
        assert_eq!(stream(5), stream(5));
        assert_ne!(stream(5), stream(6));
        let ops = stream(5);
        assert!(ops.iter().all(|&(_, k)| k < 1024));
        for kind in Kind::ALL {
            assert!(ops.iter().any(|&(k, _)| k == kind), "{kind:?} never drawn");
        }
    }

    #[test]
    fn zipf_is_skewed_toward_few_keys() {
        let z = Zipf::new(1000, 0.99);
        let mut rng = SplitMix64::new(9);
        let mut hits = vec![0u32; 1000];
        for _ in 0..100_000 {
            hits[z.sample(&mut rng) as usize] += 1;
        }
        hits.sort_unstable_by(|a, b| b.cmp(a));
        let top10: u32 = hits[..10].iter().sum();
        assert!(top10 > 30_000, "top 10 keys took only {top10} of 100000");
    }

    #[test]
    fn fingerprint_catches_every_single_byte_flip() {
        let mut page = vec![0u8; PAGE];
        fill_page(2, 11, 0, &mut page);
        let fp = fingerprint(&page);
        for i in (0..PAGE).step_by(97).chain([PAGE - 1]) {
            page[i] ^= 0x01;
            assert_ne!(fingerprint(&page), fp, "flip at byte {i} went unseen");
            page[i] ^= 0x01;
        }
        assert_eq!(fingerprint(&page), fp);
    }
}
