//! Peak resident memory of the timed phase, from Linux `/proc`.
//!
//! Writing `5` to `/proc/self/clear_refs` resets the process's `VmHWM`
//! (peak RSS) to its current RSS, so a reset taken after set-up makes the
//! next `VmHWM` read cover only what ran since.

use std::io;

/// Resets the peak-RSS watermark to the current RSS.
pub fn reset_peak() -> io::Result<()> {
    std::fs::write("/proc/self/clear_refs", "5")
}

/// Peak RSS since start or the last [`reset_peak`], in KiB.
pub fn peak_kib() -> io::Result<u64> {
    status_kib("VmHWM:")
}

fn status_kib(field: &str) -> io::Result<u64> {
    let status = std::fs::read_to_string("/proc/self/status")?;
    status
        .lines()
        .find_map(|line| line.strip_prefix(field))
        .and_then(|rest| rest.trim().strip_suffix("kB"))
        .and_then(|kib| kib.trim().parse().ok())
        .ok_or_else(|| io::Error::other(format!("no {field} line in /proc/self/status")))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reset_drops_the_watermark_to_current_rss() {
        const MIB: usize = 1 << 20;
        let mut block = vec![0u8; 128 * MIB];
        // Touch every page so the block is resident.
        for i in (0..block.len()).step_by(4096) {
            block[i] = 1;
        }
        std::hint::black_box(&block);
        let with_block = peak_kib().expect("VmHWM readable");
        drop(block);
        assert!(
            with_block >= 128 * 1024,
            "peak {with_block} KiB covers the block"
        );
        // The kernel's RSS counters are per-CPU and read approximately.
        let slack = 4 * 1024;
        assert!(peak_kib().expect("VmHWM readable") + slack >= with_block);

        reset_peak().expect("clear_refs writable");
        let after = peak_kib().expect("VmHWM readable");
        assert!(
            after + 64 * 1024 < with_block,
            "reset peak {after} KiB forgets the freed block ({with_block} KiB)"
        );
    }
}
