//! Host and build fingerprint, and process memory, read from `/proc`
//! and the files of the checkout. Nothing here starts a process.

use std::path::Path;

/// Peak resident set size of this process in kB (`VmHWM`), or 0 when
/// `/proc` is unavailable.
pub fn peak_rss_kb() -> u64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines().find_map(|l| {
                l.strip_prefix("VmHWM:")?
                    .trim()
                    .trim_end_matches("kB")
                    .trim()
                    .parse()
                    .ok()
            })
        })
        .unwrap_or(0)
}

/// Logical CPUs available to this process.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// The CPU model string from `/proc/cpuinfo`, or `unknown`.
pub fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines().find_map(|l| {
                let (key, value) = l.split_once(':')?;
                (key.trim() == "model name").then(|| value.trim().to_string())
            })
        })
        .unwrap_or_else(|| "unknown".to_string())
}

/// The compiler that built this binary (`rustc -V`, captured at build
/// time).
pub fn rustc_version() -> &'static str {
    env!("PERFBENCH_RUSTC")
}

/// The cargo profile this binary was built with.
pub fn build_profile() -> &'static str {
    env!("PERFBENCH_PROFILE")
}

/// The git revision of the checkout at `root`, read from `.git`
/// without running git; `unknown` outside a git repository.
pub fn git_revision(root: &Path) -> String {
    let git = root.join(".git");
    let read = |p: &Path| std::fs::read_to_string(p).ok();
    let Some(head) = read(&git.join("HEAD")) else {
        return "unknown".to_string();
    };
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head.to_string();
    };
    if let Some(rev) = read(&git.join(reference)) {
        return rev.trim().to_string();
    }
    read(&git.join("packed-refs"))
        .and_then(|packed| {
            packed.lines().find_map(|l| {
                let (rev, name) = l.split_once(' ')?;
                (name == reference).then(|| rev.to_string())
            })
        })
        .unwrap_or_else(|| "unknown".to_string())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fingerprint_fields_are_filled() {
        assert!(nproc() >= 1);
        assert!(!cpu_model().is_empty());
        assert!(rustc_version().starts_with("rustc") || rustc_version() == "unknown");
        assert!(!build_profile().is_empty());
        assert_eq!(git_revision(Path::new("/nonexistent")), "unknown");
    }
}
