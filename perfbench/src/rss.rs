//! `perfbench rss --out FILE -- CMD ARGS...`: runs one command and
//! records its wall time and peak resident memory.
//!
//! The kernel's peak-RSS figure for a process includes the memory of
//! the image that forked it, up to the `exec`. Forked straight from the
//! benchmark script, every child would report at least the script's own
//! ~20 MB. Forked from this small binary instead, the floor is a few MB
//! and the figure is the command's own.

use std::process::Command;
use std::time::Instant;

/// `struct timeval` of the C library.
#[repr(C)]
#[derive(Default)]
struct Timeval {
    tv_sec: i64,
    tv_usec: i64,
}

/// `struct rusage` of the C library on 64-bit Linux.
#[repr(C)]
#[derive(Default)]
struct Rusage {
    ru_utime: Timeval,
    ru_stime: Timeval,
    ru_maxrss: i64,
    rest: [i64; 13],
}

const RUSAGE_CHILDREN: i32 = -1;

extern "C" {
    fn getrusage(who: i32, usage: *mut Rusage) -> i32;
}

/// Peak RSS in KiB over every child this process has waited for.
fn children_max_rss_kib() -> Result<i64, String> {
    let mut usage = Rusage::default();
    // SAFETY: `usage` is a live, writable `Rusage` laid out like the C
    // `struct rusage` on 64-bit Linux (two `timeval`s, then fourteen
    // `long`s), so getrusage writes only inside it.
    let rc = unsafe { getrusage(RUSAGE_CHILDREN, &mut usage) };
    if rc != 0 {
        return Err(format!("getrusage: {}", std::io::Error::last_os_error()));
    }
    Ok(usage.ru_maxrss)
}

/// Runs the command; writes `{"exit":..,"wall_s":..,"peak_rss_mb":..}`
/// to the `--out` file and returns the command's exit code.
pub fn main(argv: &[String]) -> Result<i32, String> {
    let (out, cmd) = match argv {
        [flag, out, dashes, cmd @ ..] if flag == "--out" && dashes == "--" && !cmd.is_empty() => {
            (out, cmd)
        }
        _ => return Err("usage: perfbench rss --out FILE -- CMD [ARGS...]".into()),
    };
    let started = Instant::now();
    let status = Command::new(&cmd[0])
        .args(&cmd[1..])
        .status()
        .map_err(|e| format!("{}: {e}", cmd[0]))?;
    let wall = started.elapsed().as_secs_f64();
    let peak_mb = children_max_rss_kib()? as f64 / 1024.0;
    let code = status.code().unwrap_or(-1);
    std::fs::write(
        out,
        format!("{{\"exit\":{code},\"wall_s\":{wall},\"peak_rss_mb\":{peak_mb}}}\n"),
    )
    .map_err(|e| format!("{out}: {e}"))?;
    Ok(code)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reports_a_childs_peak_memory() {
        // A child that touches ~64 MB must report at least that much.
        let status = Command::new("python3")
            .args([
                "-c",
                "b = bytearray(64 * 1024 * 1024); b[::4096] = b'x' * len(b[::4096])",
            ])
            .status()
            .unwrap();
        assert!(status.success());
        assert!(children_max_rss_kib().unwrap() >= 64 * 1024);
    }
}
