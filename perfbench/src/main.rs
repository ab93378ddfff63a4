//! `perfbench`: the compiled half of the SIMTY benchmark.
//!
//! `run.py` builds this binary next to `standby` and calls it for the
//! jobs a script cannot do well:
//!
//! * `serve` — the open-loop load generator against a running
//!   `standby serve` (the open-ended rate ladder, or in the traced run
//!   the fixed `light` and `busy` rates), printing one JSON object of
//!   metrics;
//! * `trace` — the traced run: it calls each layer's public functions
//!   from here, keeps one span per call in memory, writes the spans out
//!   at the end and prints the per-layer metrics as one JSON object;
//! * `rss` — runs one command and records its wall time and peak
//!   resident memory.

mod load;
mod metrics;
mod probes;
mod rss;
mod serve;
mod stats;
mod stub;
mod trace;
mod traffic;

use std::collections::BTreeMap;
use std::process::ExitCode;

/// `--flag value` pairs after the subcommand.
pub struct Args(BTreeMap<String, String>);

impl Args {
    fn parse(raw: &[String]) -> Result<Args, String> {
        let mut map = BTreeMap::new();
        let mut it = raw.iter();
        while let Some(flag) = it.next() {
            let name = flag
                .strip_prefix("--")
                .ok_or_else(|| format!("unexpected argument `{flag}`"))?;
            let value = it.next().ok_or_else(|| format!("--{name} needs a value"))?;
            map.insert(name.to_owned(), value.clone());
        }
        Ok(Args(map))
    }

    /// A required string flag.
    pub fn str(&self, name: &str) -> Result<&str, String> {
        self.0
            .get(name)
            .map(String::as_str)
            .ok_or_else(|| format!("missing --{name}"))
    }

    /// A required flag parsed as `T`.
    pub fn get<T: std::str::FromStr>(&self, name: &str) -> Result<T, String> {
        let raw = self.str(name)?;
        raw.parse()
            .map_err(|_| format!("--{name}: cannot parse `{raw}`"))
    }
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let Some((command, rest)) = argv.split_first() else {
        eprintln!("usage: perfbench <serve|trace|rss> ...");
        return ExitCode::from(2);
    };
    if command == "rss" {
        return match rss::main(rest) {
            Ok(code) => ExitCode::from(u8::try_from(code).unwrap_or(1)),
            Err(e) => {
                eprintln!("perfbench: {e}");
                ExitCode::FAILURE
            }
        };
    }
    let result = Args::parse(rest).and_then(|args| match command.as_str() {
        "serve" => serve::main(&args),
        "trace" => probes::main(&args),
        other => Err(format!("unknown command `{other}`")),
    });
    match result {
        Ok(json) => {
            println!("{json}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}
