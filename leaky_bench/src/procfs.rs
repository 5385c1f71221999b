//! Std-only process probe over `/proc/self` (Linux only; elsewhere every
//! reading is absent rather than zero).

/// `/proc` reports CPU times in `USER_HZ` ticks, which Linux fixes at 100
/// per second on every mainstream architecture.
const MS_PER_TICK: f64 = 10.0;

/// One reading of the process counters.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Probe {
    user_ticks: u64,
    sys_ticks: u64,
    minor_faults: u64,
    /// Voluntary plus involuntary context switches, summed over threads.
    ctx_switches: u64,
    /// Peak resident set size (`VmHWM`), kB.
    hwm_kb: u64,
}

/// Counters accumulated over some spans of a run.
#[derive(Debug, Clone, Copy, Default)]
pub struct Usage {
    /// Spans probed.
    pub spans: usize,
    pub cpu_ms: f64,
    pub sys_ms: f64,
    pub minor_faults: u64,
    pub ctx_switches: u64,
}

impl Usage {
    /// Adds the counter growth between two probes.
    pub fn add(&mut self, before: &Probe, after: &Probe) {
        let user = after.user_ticks.saturating_sub(before.user_ticks) as f64;
        let sys = after.sys_ticks.saturating_sub(before.sys_ticks) as f64;
        self.spans += 1;
        self.cpu_ms += (user + sys) * MS_PER_TICK;
        self.sys_ms += sys * MS_PER_TICK;
        self.minor_faults += after.minor_faults.saturating_sub(before.minor_faults);
        self.ctx_switches += after.ctx_switches.saturating_sub(before.ctx_switches);
    }

    /// CPU milliseconds (user plus system) per probed span; `None` without
    /// readings.
    pub fn cpu_ms_per_span(&self) -> Option<f64> {
        (self.spans > 0).then(|| self.cpu_ms / self.spans as f64)
    }
}

impl Probe {
    /// Reads the counters now; `None` where `/proc/self` is unavailable.
    pub fn read() -> Option<Probe> {
        let stat = std::fs::read_to_string("/proc/self/stat").ok()?;
        // The command name (field 2) may hold spaces; fields resume after
        // its closing parenthesis, starting with field 3 (state).
        let rest = stat.get(stat.rfind(')')? + 1..)?;
        let fields: Vec<&str> = rest.split_whitespace().collect();
        let field = |n: usize| -> Option<u64> { fields.get(n - 3)?.parse().ok() };
        let status = std::fs::read_to_string("/proc/self/status").ok()?;
        let mut ctx_switches = 0;
        for task in std::fs::read_dir("/proc/self/task").ok()? {
            let path = task.ok()?.path().join("status");
            // A thread may exit between listing and reading.
            if let Ok(text) = std::fs::read_to_string(path) {
                ctx_switches += status_field(&text, "voluntary_ctxt_switches:").unwrap_or(0)
                    + status_field(&text, "nonvoluntary_ctxt_switches:").unwrap_or(0);
            }
        }
        Some(Probe {
            minor_faults: field(10)?,
            user_ticks: field(14)?,
            sys_ticks: field(15)?,
            ctx_switches,
            hwm_kb: status_field(&status, "VmHWM:")?,
        })
    }

    pub fn peak_rss_mb(&self) -> f64 {
        self.hwm_kb as f64 / 1024.0
    }
}

fn status_field(text: &str, key: &str) -> Option<u64> {
    let line = text.lines().find(|l| l.starts_with(key))?;
    line[key.len()..].split_whitespace().next()?.parse().ok()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn status_fields_parse() {
        let text = "Name:\tx\nVmHWM:\t  1234 kB\nvoluntary_ctxt_switches:\t7\n";
        assert_eq!(status_field(text, "VmHWM:"), Some(1234));
        assert_eq!(status_field(text, "voluntary_ctxt_switches:"), Some(7));
        assert_eq!(status_field(text, "Missing:"), None);
    }
}
