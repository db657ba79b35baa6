//! Measurement helpers: order statistics, process CPU time, the work
//! directory's filesystem, and an order-independent graph digest.

use std::path::Path;

use hashgraph::DeBruijnGraph;

/// Median of `values` (mean of the middle pair for even counts).
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// Largest of `values`.
pub fn max(values: &[f64]) -> f64 {
    values
        .iter()
        .copied()
        .fold(f64::NEG_INFINITY, f64::max)
        .max(0.0)
}

/// Clock ticks per second of `/proc/<pid>/stat` times (`USER_HZ`, 100 on
/// every mainstream Linux build).
const CLOCK_TICKS: f64 = 100.0;

/// User + system CPU seconds of this process plus its reaped children
/// (the shard workers), from `/proc/self/stat`.
pub fn cpu_seconds() -> f64 {
    let stat = std::fs::read_to_string("/proc/self/stat").unwrap_or_default();
    // Fields after the parenthesised command name, which may hold spaces.
    let rest = stat.rsplit_once(')').map_or("", |(_, rest)| rest);
    let fields: Vec<&str> = rest.split_whitespace().collect();
    // utime, stime, cutime, cstime are fields 14..=17 of the whole line,
    // i.e. 11..=14 after the command name.
    let ticks: f64 = fields
        .iter()
        .skip(11)
        .take(4)
        .filter_map(|f| f.parse::<f64>().ok())
        .sum();
    ticks / CLOCK_TICKS
}

/// Filesystem type of the mount holding `path`, from
/// `/proc/self/mountinfo`.
pub fn filesystem_type(path: &Path) -> String {
    let path = std::fs::canonicalize(path).unwrap_or_else(|_| path.to_path_buf());
    let info = std::fs::read_to_string("/proc/self/mountinfo").unwrap_or_default();
    let mut best: Option<(usize, String)> = None;
    for line in info.lines() {
        let Some((left, right)) = line.split_once(" - ") else {
            continue;
        };
        let Some(mount_point) = left.split(' ').nth(4) else {
            continue;
        };
        let Some(fs_type) = right.split(' ').next() else {
            continue;
        };
        let mount_point = mount_point.replace("\\040", " ");
        if path.starts_with(&mount_point)
            && best
                .as_ref()
                .is_none_or(|(len, _)| mount_point.len() >= *len)
        {
            best = Some((mount_point.len(), fs_type.to_string()));
        }
    }
    best.map_or_else(|| "unknown".to_string(), |(_, fs)| fs)
}

/// Content digest of a graph that does not depend on iteration order:
/// vertex and occurrence counts plus a sum and an xor of a strong mix of
/// every vertex record. Two graphs with equal digests hold the same
/// vertices with the same counts and edges, barring a 128-bit collision.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GraphDigest {
    pub vertices: u64,
    pub kmers: u64,
    pub sum: u64,
    pub xor: u64,
}

fn mix(mut x: u64) -> u64 {
    x ^= x >> 30;
    x = x.wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x ^= x >> 27;
    x = x.wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

impl GraphDigest {
    pub fn of(graph: &DeBruijnGraph) -> GraphDigest {
        let mut d = GraphDigest {
            vertices: 0,
            kmers: 0,
            sum: 0,
            xor: 0,
        };
        for (kmer, data) in graph.iter() {
            let mut h = mix(kmer.k() as u64 ^ 0x9e37_79b9_7f4a_7c15);
            for &w in kmer.words() {
                h = mix(h ^ w);
            }
            h = mix(h ^ data.count as u64);
            for &e in &data.edges {
                h = mix(h ^ e as u64);
            }
            d.vertices += 1;
            d.kmers += data.count as u64;
            d.sum = d.sum.wrapping_add(h);
            d.xor ^= mix(h ^ 0xd6e8_feb8_6659_fd93);
        }
        d
    }

    pub fn to_line(self) -> String {
        format!(
            "{} {} {:016x} {:016x}",
            self.vertices, self.kmers, self.sum, self.xor
        )
    }

    pub fn parse(line: &str) -> Option<GraphDigest> {
        let mut f = line.split_whitespace();
        let digest = GraphDigest {
            vertices: f.next()?.parse().ok()?,
            kmers: f.next()?.parse().ok()?,
            sum: u64::from_str_radix(f.next()?, 16).ok()?,
            xor: u64::from_str_radix(f.next()?, 16).ok()?,
        };
        f.next().is_none().then_some(digest)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dna::SeqRead;

    #[test]
    fn median_handles_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn digest_separates_graphs_and_round_trips() {
        let a = baselines::reference_graph(&[SeqRead::from_ascii("a", b"ACGTTGCATGGACCAGTTAC")], 9);
        let b = baselines::reference_graph(&[SeqRead::from_ascii("b", b"ACGTTGCATGGACCAGTTAG")], 9);
        let da = GraphDigest::of(&a);
        assert_eq!(da, GraphDigest::of(&a.clone()));
        assert_ne!(da, GraphDigest::of(&b));
        assert_eq!(GraphDigest::parse(&da.to_line()), Some(da));
    }

    #[test]
    fn cpu_time_grows_with_work() {
        let before = cpu_seconds();
        let until = std::time::Instant::now() + std::time::Duration::from_millis(60);
        while std::time::Instant::now() < until {}
        assert!(cpu_seconds() > before);
    }
}
