//! Engine recommendation: the published comparison-map guidance as code.
//!
//! The evaluation's comparison maps answer "which simulator should I use
//! for an `N × M` model and `S` parallel simulations?". This module encodes
//! the published decision surface so downstream tools can pick an engine
//! without running all four; the map tables *measure* the surface instead
//! and check it has the same shape.

use std::fmt;

/// The four engines of the comparison study.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum EngineKind {
    /// Sequential CPU (LSODA/VODE-class).
    Cpu,
    /// Coarse-grained GPU (cupSODA-class).
    Coarse,
    /// Fine-grained GPU (LASSIE-class).
    Fine,
    /// Fine+coarse GPU (the contribution).
    FineCoarse,
}

impl fmt::Display for EngineKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            EngineKind::Cpu => "cpu",
            EngineKind::Coarse => "coarse",
            EngineKind::Fine => "fine",
            EngineKind::FineCoarse => "fine-coarse",
        };
        write!(f, "{s}")
    }
}

/// Recommends an engine for an `n_species × n_reactions` model and a batch
/// of `n_simulations`, following the published guidance:
///
/// * single simulation, small model → CPU (break-even near 512 × 512 for
///   symmetric models);
/// * few simulations (< 256) of small models (< 128 species/reactions) →
///   coarse-only, which exploits constant/shared memory there;
/// * single simulation of a very large model → fine-grained;
/// * everything else → the fine+coarse engine.
///
/// # Example
///
/// ```
/// use paraspace_core::{recommend_engine, EngineKind};
///
/// assert_eq!(recommend_engine(16, 16, 1), EngineKind::Cpu);
/// assert_eq!(recommend_engine(64, 64, 128), EngineKind::Coarse);
/// assert_eq!(recommend_engine(256, 256, 1024), EngineKind::FineCoarse);
/// assert_eq!(recommend_engine(1024, 800, 1), EngineKind::Fine);
/// ```
pub fn recommend_engine(n_species: usize, n_reactions: usize, n_simulations: usize) -> EngineKind {
    let small_model = n_species < 128 && n_reactions < 128;
    if n_simulations <= 1 {
        // Single simulation: CPU until the model outgrows it.
        if n_species < 512 || n_reactions < 512 {
            if n_species >= 512 {
                return EngineKind::Fine;
            }
            return EngineKind::Cpu;
        }
        return EngineKind::Fine;
    }
    if small_model && n_simulations < 256 {
        return EngineKind::Coarse;
    }
    EngineKind::FineCoarse
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_simulation_regions() {
        assert_eq!(recommend_engine(8, 8, 1), EngineKind::Cpu);
        assert_eq!(recommend_engine(256, 256, 1), EngineKind::Cpu);
        assert_eq!(recommend_engine(512, 512, 1), EngineKind::Fine);
        assert_eq!(recommend_engine(1024, 1024, 1), EngineKind::Fine);
    }

    #[test]
    fn small_models_few_sims_go_coarse() {
        assert_eq!(recommend_engine(32, 64, 16), EngineKind::Coarse);
        assert_eq!(recommend_engine(64, 64, 255), EngineKind::Coarse);
    }

    #[test]
    fn batch_work_goes_fine_coarse() {
        assert_eq!(recommend_engine(64, 64, 256), EngineKind::FineCoarse);
        assert_eq!(recommend_engine(128, 128, 2), EngineKind::FineCoarse);
        assert_eq!(recommend_engine(800, 800, 2048), EngineKind::FineCoarse);
    }

    #[test]
    fn display_names_match_map_labels() {
        assert_eq!(EngineKind::FineCoarse.to_string(), "fine-coarse");
        assert_eq!(EngineKind::Cpu.to_string(), "cpu");
    }
}
