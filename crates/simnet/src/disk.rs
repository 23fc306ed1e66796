//! Disk profiles for the ETL staging-file model.
//!
//! The paper's ETL pipeline streams every batch through a temporary staging
//! file ("every time data was retrieved from a database it was first placed
//! into a temporary file") and calls this "a performance bottleneck". The
//! [`DiskProfile`] prices that detour so the staging-vs-direct ablation
//! (section 3 of the `ablations` binary) can quantify the claim.

use crate::cost::Cost;

/// Sequential-I/O disk model.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DiskProfile {
    /// Sequential write bandwidth, bytes/s.
    pub write_bps: f64,
    /// Sequential read bandwidth, bytes/s.
    pub read_bps: f64,
    /// Open + close + metadata cost per file.
    pub open_close: Cost,
}

impl DiskProfile {
    /// A 2005-era IDE disk, as in the paper's Pentium-IV testbed.
    pub fn ide_2005() -> DiskProfile {
        DiskProfile {
            write_bps: 25e6,
            read_bps: 35e6,
            open_close: Cost::from_millis(6),
        }
    }

    /// Virtual time to create, write, and close a staging file of `bytes`.
    pub fn write_file(&self, bytes: usize) -> Cost {
        self.open_close + Cost::from_secs_f64(bytes as f64 / self.write_bps)
    }

    /// Virtual time to open, read, and close a staging file of `bytes`.
    pub fn read_file(&self, bytes: usize) -> Cost {
        self.open_close + Cost::from_secs_f64(bytes as f64 / self.read_bps)
    }

    /// Full staging detour: write the file, then read it back.
    pub fn stage(&self, bytes: usize) -> Cost {
        self.write_file(bytes) + self.read_file(bytes)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn staging_cost_grows_with_size() {
        let d = DiskProfile::ide_2005();
        assert!(d.stage(1 << 20) > d.stage(1 << 10));
    }

    #[test]
    fn empty_file_still_pays_open_close() {
        let d = DiskProfile::ide_2005();
        assert_eq!(d.write_file(0), d.open_close);
        assert_eq!(d.stage(0), d.open_close + d.open_close);
    }

    #[test]
    fn read_faster_than_write() {
        let d = DiskProfile::ide_2005();
        assert!(d.read_file(10 << 20) < d.write_file(10 << 20));
    }
}
