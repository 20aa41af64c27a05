//! Sample summaries, process memory and the machine fingerprint.

use std::time::Duration;

/// Timing samples in nanoseconds, kept as a log-linear histogram so
/// the benchmark's own memory does not grow with the run: 128
/// sub-buckets per power of two, so a bucket is at most 1/128 of its
/// value wide. Quantiles interpolate within the bucket.
#[derive(Debug, Default, Clone)]
pub struct Samples {
    counts: Vec<u32>,
    len: u64,
    total_ns: u64,
}

const SUB_BITS: u32 = 7;
const SUB: u64 = 1 << SUB_BITS;
const BUCKETS: usize = (2 * SUB + (64 - SUB_BITS as u64 - 1) * SUB) as usize;

/// The bucket of `v`: exact below `2·SUB`, then `SUB` per power of two.
fn bucket(v: u64) -> usize {
    if v < 2 * SUB {
        return v as usize;
    }
    let shift = 64 - v.leading_zeros() - SUB_BITS - 1;
    (2 * SUB + u64::from(shift - 1) * SUB + ((v >> shift) - SUB)) as usize
}

/// The lower edge and width of bucket `i`.
fn bucket_range(i: usize) -> (f64, f64) {
    let i = i as u64;
    if i < 2 * SUB {
        return (i as f64, 1.0);
    }
    let shift = (i - 2 * SUB) / SUB + 1;
    let top = SUB + (i - 2 * SUB) % SUB;
    ((top << shift) as f64, (1u64 << shift) as f64)
}

impl Samples {
    pub fn push(&mut self, d: Duration) {
        self.push_ns(u64::try_from(d.as_nanos()).unwrap_or(u64::MAX));
    }

    pub fn push_ns(&mut self, ns: u64) {
        if self.counts.is_empty() {
            self.counts = vec![0; BUCKETS];
        }
        self.counts[bucket(ns)] += 1;
        self.len += 1;
        self.total_ns = self.total_ns.saturating_add(ns);
    }

    pub fn extend(&mut self, other: &Samples) {
        if other.len == 0 {
            return;
        }
        if self.counts.is_empty() {
            self.counts = vec![0; BUCKETS];
        }
        for (a, b) in self.counts.iter_mut().zip(&other.counts) {
            *a += b;
        }
        self.len += other.len;
        self.total_ns = self.total_ns.saturating_add(other.total_ns);
    }

    pub fn len(&self) -> usize {
        usize::try_from(self.len).unwrap_or(usize::MAX)
    }

    pub fn total_ns(&self) -> u64 {
        self.total_ns
    }

    /// The `q`-quantile in microseconds; 0 when empty. The rank
    /// `q·(n−1)` is located in its bucket and placed linearly within it.
    pub fn quantile_us(&self, q: f64) -> f64 {
        if self.len == 0 {
            return 0.0;
        }
        let rank = q.clamp(0.0, 1.0) * (self.len - 1) as f64;
        let mut below = 0u64;
        for (i, &c) in self.counts.iter().enumerate() {
            let c = u64::from(c);
            if c > 0 && rank < (below + c) as f64 {
                let (lo, width) = bucket_range(i);
                let frac = (rank - below as f64 + 0.5) / c as f64;
                return (lo + frac * width) / 1e3;
            }
            below += c;
        }
        0.0
    }

    pub fn p50_us(&self) -> f64 {
        self.quantile_us(0.5)
    }

    /// The 99th percentile in microseconds, or `None` when fewer than
    /// ten samples lie beyond it (under 1000 samples).
    pub fn p99_us(&self) -> Option<f64> {
        (self.len >= 1000).then(|| self.quantile_us(0.99))
    }
}

/// The median of a small set of values (0 when empty).
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// Peak resident set size of this process in MiB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    proc_status_kb("VmHWM:").map_or(0.0, |kb| kb as f64 / 1024.0)
}

fn proc_status_kb(key: &str) -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    status
        .lines()
        .find(|l| l.starts_with(key))?
        .split_whitespace()
        .nth(1)?
        .parse()
        .ok()
}

/// Worker threads the benchmark may use: the machine's parallelism,
/// capped at two so rows from bigger machines stay comparable.
pub fn worker_threads() -> usize {
    nproc().min(2)
}

pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

pub fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split_once(':'))
                .map(|(_, v)| v.trim().to_owned())
        })
        .unwrap_or_else(|| "unknown".to_owned())
}

/// The checked-out commit, read from `.git` without spawning `git`;
/// `"unknown"` outside a git checkout.
pub fn commit() -> String {
    let head = match std::fs::read_to_string(".git/HEAD") {
        Ok(h) => h.trim().to_owned(),
        Err(_) => return "unknown".to_owned(),
    };
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head;
    };
    if let Ok(id) = std::fs::read_to_string(format!(".git/{reference}")) {
        return id.trim().to_owned();
    }
    std::fs::read_to_string(".git/packed-refs")
        .ok()
        .and_then(|packed| {
            packed.lines().find_map(|l| {
                let (id, name) = l.split_once(' ')?;
                (name == reference).then(|| id.to_owned())
            })
        })
        .unwrap_or_else(|| "unknown".to_owned())
}

/// FNV-1a, for verdict digests.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate_within_buckets() {
        let mut s = Samples::default();
        for ns in [100, 200, 300] {
            s.push_ns(ns);
        }
        // Below 256 ns every bucket is one nanosecond wide.
        assert_eq!(s.p50_us(), 0.2005);
        assert_eq!(s.p99_us(), None, "p99 needs ten samples beyond it");
        let mut big = Samples::default();
        for k in 1..=10_000u64 {
            big.push_ns(k * 1000);
        }
        let p50 = big.p50_us();
        assert!((p50 - 5000.0).abs() / 5000.0 < 1.0 / 128.0, "{p50}");
        let p99 = big.p99_us().expect("10k samples");
        assert!((p99 - 9900.0).abs() / 9900.0 < 1.0 / 128.0, "{p99}");
        assert_eq!(big.total_ns(), 1000 * 10_000 * 10_001 / 2);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }

    #[test]
    fn buckets_tile_the_range() {
        for v in [
            0u64,
            1,
            255,
            256,
            257,
            1000,
            1 << 20,
            (1 << 40) + 12345,
            1 << 62,
        ] {
            let (lo, width) = bucket_range(bucket(v));
            assert!(
                lo <= v as f64 && (v as f64) < lo + width,
                "{v}: {lo} + {width}"
            );
            assert!(width <= (lo / 128.0).max(1.0), "{v}: width {width}");
        }
    }
}
