//! `depkit discover` through the CLI on a serve workload's seed spec: the
//! correctness gates of a traced run's discovery layers.
//!
//! serve-write's consistent seed is discovered exactly (the refutation
//! path); serve-read's planted seed with `--max-error 0.01 --top-k 10`
//! (the counting path), which must rank the dangling foreign key.

use crate::gen;
use depkit_solver::discover::DiscoveryConfig;
use std::path::Path;
use std::process::{Command, Stdio};
use std::time::Instant;

/// `--max-error` and `--top-k` of the planted seed's discovery.
pub const MAX_ERROR: f64 = 0.01;
pub const TOP_K: usize = 10;

/// The discovery configuration of a seed spec: tolerant when `planted`
/// (count misses to the end of every column), exact otherwise.
pub fn config(planted: bool) -> DiscoveryConfig {
    if planted {
        DiscoveryConfig {
            max_error: MAX_ERROR,
            top_k: TOP_K,
            ..DiscoveryConfig::default()
        }
    } else {
        DiscoveryConfig::default()
    }
}

/// Exact discovery under a budget of a tenth of the distinct-value
/// footprint, so columns spill sorted runs to `spill_dir`.
pub fn spill_config(footprint: usize, spill_dir: &Path) -> DiscoveryConfig {
    DiscoveryConfig {
        memory_budget: footprint / 10,
        spill_dir: Some(spill_dir.to_path_buf()),
        ..DiscoveryConfig::default()
    }
}

fn cli_args(cfg: &DiscoveryConfig) -> Vec<String> {
    let mut args = Vec::new();
    if cfg.memory_budget > 0 {
        args.push("--memory-budget".to_owned());
        args.push(cfg.memory_budget.to_string());
        args.push("--stats".to_owned());
    }
    if let Some(dir) = &cfg.spill_dir {
        args.push("--spill-dir".to_owned());
        args.push(dir.display().to_string());
    }
    if cfg.max_error > 0.0 {
        args.push("--max-error".to_owned());
        args.push(cfg.max_error.to_string());
        args.push("--top-k".to_owned());
        args.push(cfg.top_k.to_string());
    }
    args
}

/// Run `depkit <args>` to completion; returns stdout and wall seconds.
pub fn invoke(depkit: &Path, args: &[String]) -> Result<(String, f64), String> {
    let t0 = Instant::now();
    let out = Command::new(depkit)
        .args(args)
        .stdin(Stdio::null())
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("spawn {}: {e}", depkit.display()))?;
    let secs = t0.elapsed().as_secs_f64();
    if !out.status.success() {
        return Err(format!(
            "depkit {} exited with {}",
            args.join(" "),
            out.status
        ));
    }
    String::from_utf8(out.stdout)
        .map(|s| (s, secs))
        .map_err(|e| e.to_string())
}

fn cover_lines(stdout: &str) -> Vec<&str> {
    stdout
        .lines()
        .filter_map(|l| l.strip_prefix("dep "))
        .collect()
}

/// The planted foreign key's expected ranking: `misses` dangling rows of
/// `support`.
#[derive(Debug, Clone, Copy)]
pub struct Planted {
    pub misses: u64,
    pub support: u64,
}

/// The discover gates on one invocation's output: its cover equals
/// `want`; a budgeted run really spilled; a tolerant run ranks the
/// planted foreign key with confidence exactly `1 − misses/support`.
pub fn gate_output(
    stdout: &str,
    what: &str,
    want: &[String],
    cfg: &DiscoveryConfig,
    planted: Option<Planted>,
) -> Vec<String> {
    let mut failures = Vec::new();
    let got = cover_lines(stdout);
    if got != want {
        failures.push(format!(
            "printed cover ({} deps) differs from the {what} cover ({} deps)",
            got.len(),
            want.len()
        ));
    }
    if cfg.memory_budget > 0 {
        let spilled = stdout
            .lines()
            .find_map(|l| l.strip_prefix("spill: "))
            .and_then(|l| l.split_whitespace().next())
            .and_then(|n| n.parse::<usize>().ok());
        if !matches!(spilled, Some(n) if n > 0) {
            failures.push(format!("budgeted run did not spill a column: {spilled:?}"));
        }
    }
    if let (true, Some(Planted { misses, support })) = (cfg.max_error > 0.0, planted) {
        let want = format!(
            " {}  confidence {:.4}, support {support}, misses {misses}",
            gen::PLANTED_FK,
            1.0 - misses as f64 / support as f64
        );
        let ranked = stdout
            .lines()
            .skip_while(|l| !l.starts_with("ranked:"))
            .any(|l| l.trim_start().starts_with('#') && l.ends_with(&want));
        if !ranked {
            failures.push(format!(
                "planted foreign key not ranked as `{}`",
                want.trim()
            ));
        }
    }
    failures
}

/// Run `depkit discover` on `spec_path` under `cfg` and under the
/// budgeted `spill_cfg`, and gate both: the first must print `cover`,
/// the in-process cover under `cfg`; the second must spill and print
/// `exact`, the unbounded in-process exact cover.
pub fn gates(
    depkit: &Path,
    spec_path: &Path,
    cfg: &DiscoveryConfig,
    spill_cfg: &DiscoveryConfig,
    cover: &[String],
    exact: &[String],
    planted: Option<Planted>,
) -> Result<Vec<String>, String> {
    let run = |c: &DiscoveryConfig| {
        let mut args = vec!["discover".to_owned(), spec_path.display().to_string()];
        args.extend(cli_args(c));
        invoke(depkit, &args).map(|(stdout, _)| stdout)
    };
    let mut failures = gate_output(&run(cfg)?, "in-process", cover, cfg, planted);
    failures.extend(gate_output(
        &run(spill_cfg)?,
        "unbounded in-process",
        exact,
        spill_cfg,
        None,
    ));
    Ok(failures)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn discover_gates_reject_a_wrong_cover_and_rank() {
        let cfg = config(true);
        let planted = Planted {
            misses: 24,
            support: 64_032,
        };
        let good = format!(
            "cover: 2 dependencies\ndep A\ndep B\nranked: top 1\n  #1 {}  confidence {:.4}, support 64032, misses 24\n",
            gen::PLANTED_FK,
            1.0 - 24.0 / 64_032.0
        );
        let want = vec!["A".to_owned(), "B".to_owned()];
        assert!(gate_output(&good, "in-process", &want, &cfg, Some(planted)).is_empty());
        let wrong_cover = vec!["A".to_owned()];
        assert_eq!(
            gate_output(&good, "in-process", &wrong_cover, &cfg, Some(planted)).len(),
            1
        );
        let wrong_rank = good.replace("misses 24", "misses 1");
        assert_eq!(
            gate_output(&wrong_rank, "in-process", &want, &cfg, Some(planted)).len(),
            1
        );

        let budgeted = DiscoveryConfig {
            memory_budget: 1 << 20,
            ..DiscoveryConfig::default()
        };
        let spilled = "spill: 3 column(s) spilled, 9 run(s) written\ndep A\ndep B\n";
        assert!(gate_output(spilled, "in-process", &want, &budgeted, None).is_empty());
        let unspilled = spilled.replace("spill: 3", "spill: 0");
        assert_eq!(
            gate_output(&unspilled, "in-process", &want, &budgeted, None).len(),
            1
        );
    }
}
