//! Generated kernels in the experiment binaries' kernel mix.
//!
//! The binaries that widen their kernel mix (`smoke`, `dse_pareto`,
//! `input_sweep`) put [`cli::GENERATED`], [`cli::SEED`] and
//! [`cli::PROFILE`] in their flag table and read them back through
//! [`GenCli::from_flags`]: `--generated N` extra kernels are derived from
//! root seed `--seed S` (profiles cycling through [`GenParams::PROFILES`],
//! or all `--profile P`; per-kernel seeds from
//! [`cmam_kernels::kernel_seeds`]) and appended to the seven hand-written
//! kernels. With no flags, [`GenCli::specs`] is empty and every binary's
//! default output is byte-identical to before the flags existed (CI
//! relies on that for the smoke-twice diff).

use crate::cli::{self, Args};
use cmam_cdfg::generate::GenParams;
use cmam_kernels::{generated_spec, kernel_seeds, KernelSpec};

/// Root seed used when `--generated N` is given without `--seed`. Also the
/// fixed seed of the CI `gen_suite` block.
pub const DEFAULT_GEN_SEED: u64 = 0xDA5_2019; // Das et al., DATE 2019

/// Parsed `--generated N [--seed S] [--profile P]` flags.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GenCli {
    /// Number of generated kernels requested (0 when the flag is absent).
    pub generated: usize,
    /// Root seed (decimal or `0x…` hex).
    pub seed: u64,
    /// Profile name, or "mixed" to cycle through all profiles.
    pub profile: String,
}

impl Default for GenCli {
    fn default() -> Self {
        GenCli {
            generated: 0,
            seed: DEFAULT_GEN_SEED,
            profile: "mixed".to_owned(),
        }
    }
}

impl GenCli {
    /// The generated-kernel flags of a command line whose table holds
    /// [`cli::GENERATED`], [`cli::SEED`] and [`cli::PROFILE`]; each flag
    /// not given keeps its default.
    pub fn from_flags(args: &Args) -> GenCli {
        let default = GenCli::default();
        GenCli {
            generated: args.count(cli::GENERATED.0).unwrap_or(default.generated),
            seed: args.seed(cli::SEED.0).unwrap_or(default.seed),
            profile: args
                .text(cli::PROFILE.0)
                .map_or(default.profile, str::to_owned),
        }
    }

    /// The parameter profile for the `k`-th kernel of this run.
    pub fn params_for(&self, k: usize) -> GenParams {
        if self.profile == "mixed" {
            let name = GenParams::PROFILES[k % GenParams::PROFILES.len()];
            GenParams::profile(name).expect("known profile")
        } else {
            GenParams::profile(&self.profile).expect("validated at parse time")
        }
    }

    /// The generated kernels these flags ask for (empty without
    /// `--generated`).
    pub fn specs(&self) -> Vec<KernelSpec> {
        let seeds = kernel_seeds(self.seed, self.generated);
        seeds
            .iter()
            .enumerate()
            .map(|(k, &s)| generated_spec(&self.params_for(k), s))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(s: &[&str]) -> Result<GenCli, String> {
        let flags = [cli::GENERATED, cli::SEED, cli::PROFILE];
        let args = cli::parse_from("t", &flags, s.iter().map(|a| a.to_string()))?;
        Ok(GenCli::from_flags(&args))
    }

    #[test]
    fn absent_flags_mean_no_generated_kernels() {
        let cli = parse(&["--jobs", "4", "--csv"]).unwrap();
        assert_eq!(cli, GenCli::default());
        assert!(cli.specs().is_empty());
    }

    #[test]
    fn flags_parse_decimal_and_hex() {
        let cli = parse(&["--generated", "3", "--seed", "0xBEEF"]).unwrap();
        assert_eq!(cli.generated, 3);
        assert_eq!(cli.seed, 0xBEEF);
        let cli = parse(&["--seed", "12345"]).unwrap();
        assert_eq!(cli.seed, 12345);
    }

    #[test]
    fn bad_values_are_rejected() {
        assert!(parse(&["--seed"]).is_err());
        assert!(parse(&["--seed", "zap"]).is_err());
        assert!(parse(&["--generated", "-1"]).is_err());
        assert!(parse(&["--profile", "nope"]).is_err());
    }

    #[test]
    fn specs_are_deterministic_and_named_by_seed() {
        let cli = parse(&["--generated", "2", "--seed", "7"]).unwrap();
        let a = cli.specs();
        let b = cli.specs();
        assert_eq!(a.len(), 2);
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.name, y.name);
            assert_eq!(x.cdfg, y.cdfg);
            assert_eq!(x.mem, y.mem);
        }
        assert!(a[0].name.starts_with("gen-default-"));
        assert!(a[1].name.starts_with("gen-memory_bound-"));
    }

    #[test]
    fn fixed_profile_applies_to_every_kernel() {
        let cli = parse(&["--generated", "3", "--profile", "deep"]).unwrap();
        for spec in cli.specs() {
            assert!(spec.name.starts_with("gen-deep-"), "{}", spec.name);
        }
    }
}
