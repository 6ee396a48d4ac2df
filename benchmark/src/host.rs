//! What the numbers were measured on, printed with every run.

/// CPUs this process may use; every thread count in the benchmark is
/// capped by it.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// The checked-out commit when the benchmark runs inside a git work tree,
/// `unknown` in an exported checkout.
fn commit() -> String {
    let head = match std::fs::read_to_string(".git/HEAD") {
        Ok(h) => h.trim().to_string(),
        Err(_) => return "unknown".into(),
    };
    match head.strip_prefix("ref: ") {
        Some(r) => std::fs::read_to_string(format!(".git/{r}"))
            .map_or_else(|_| head.clone(), |s| s.trim().to_string()),
        None => head,
    }
}

pub fn descriptor() -> String {
    format!(
        "host: nproc={} arch={} jit_available={} commit={}",
        nproc(),
        std::env::consts::ARCH,
        fortrans::jit::available(),
        commit()
    )
}

/// Peak resident set of this process so far in MiB (`VmHWM`).
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}
