//! The application registry: Table 1 metadata and a uniform constructor,
//! used by the harness and benches.

use std::fmt;

use cvm_dsm::CvmBuilder;

use crate::water_nsq::WaterNsqOpt;
use crate::{barnes, fft, ocean, sor, swm, water_nsq, water_sp, AppBody};

/// The seven applications of the evaluation suite.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AppId {
    /// Barnes-Hut N-body.
    Barnes,
    /// Transpose-based FFT.
    Fft,
    /// Ocean-current simulation.
    Ocean,
    /// Red/black successive over-relaxation.
    Sor,
    /// SPEC shallow-water stencil.
    Swm750,
    /// Spatial-cell molecular dynamics.
    WaterSp,
    /// O(N²) molecular dynamics.
    WaterNsq,
}

impl AppId {
    /// All applications, in the paper's table order.
    pub const ALL: [AppId; 7] = [
        AppId::Barnes,
        AppId::Fft,
        AppId::Ocean,
        AppId::Sor,
        AppId::WaterSp,
        AppId::Swm750,
        AppId::WaterNsq,
    ];

    /// Display name matching the paper.
    pub fn name(self) -> &'static str {
        match self {
            AppId::Barnes => "Barnes",
            AppId::Fft => "FFT",
            AppId::Ocean => "Ocean",
            AppId::Sor => "SOR",
            AppId::Swm750 => "SWM750",
            AppId::WaterSp => "Water-Sp",
            AppId::WaterNsq => "Water-Nsq",
        }
    }

    /// The paper's Table 1 row for this application.
    pub fn meta(self) -> AppMeta {
        match self {
            AppId::Barnes => AppMeta {
                name: "Barnes",
                input_paper: "10240 particles",
                input_small: "2048 particles",
                sync: "barrier",
                modifications: "g",
            },
            AppId::Fft => AppMeta {
                name: "FFT",
                input_paper: "64 x 64 x 64",
                input_small: "128 x 128 (view)",
                sync: "barrier",
                modifications: "-",
            },
            AppId::Ocean => AppMeta {
                name: "Ocean",
                input_paper: "258 x 258 ocean",
                input_small: "192 x 192 ocean",
                sync: "barrier, lock",
                modifications: "g, r",
            },
            AppId::Sor => AppMeta {
                name: "SOR",
                input_paper: "2048 x 2048",
                input_small: "766 x 766",
                sync: "barrier",
                modifications: "-",
            },
            AppId::WaterSp => AppMeta {
                name: "Water-Sp",
                input_paper: "4096 molecules",
                input_small: "4096 molecules",
                sync: "barrier, lock",
                modifications: "g, r",
            },
            AppId::Swm750 => AppMeta {
                name: "SWM750",
                input_paper: "750 x 750",
                input_small: "192 x 192",
                sync: "barrier",
                modifications: "-",
            },
            AppId::WaterNsq => AppMeta {
                name: "Water-Nsq",
                input_paper: "512 molecules",
                input_small: "512 molecules",
                sync: "barrier, lock",
                modifications: "g, r, s",
            },
        }
    }

    /// Parses the CLI slug (`sor`, `water-nsq`, `swm`/`swm750`, ...).
    pub fn parse(name: &str) -> Option<AppId> {
        Some(match name {
            "barnes" => AppId::Barnes,
            "fft" => AppId::Fft,
            "ocean" => AppId::Ocean,
            "sor" => AppId::Sor,
            "swm" | "swm750" => AppId::Swm750,
            "water-sp" | "watersp" => AppId::WaterSp,
            "water-nsq" | "waternsq" => AppId::WaterNsq,
            _ => return None,
        })
    }

    /// CLI/JSON slug (the inverse of [`parse`](Self::parse)).
    pub fn slug(self) -> &'static str {
        match self {
            AppId::Barnes => "barnes",
            AppId::Fft => "fft",
            AppId::Ocean => "ocean",
            AppId::Sor => "sor",
            AppId::Swm750 => "swm",
            AppId::WaterSp => "water-sp",
            AppId::WaterNsq => "water-nsq",
        }
    }

    /// Ocean requires a power-of-two thread level (the paper has no
    /// three-thread Ocean bar for the same reason).
    pub fn supports_threads(self, threads_per_node: usize) -> bool {
        match self {
            AppId::Ocean => threads_per_node.is_power_of_two(),
            _ => true,
        }
    }
}

impl fmt::Display for AppId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// Table 1 metadata.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AppMeta {
    /// Application name.
    pub name: &'static str,
    /// The paper's input set.
    pub input_paper: &'static str,
    /// The laptop-scale default input.
    pub input_small: &'static str,
    /// Synchronization operations used.
    pub sync: &'static str,
    /// Source modifications (`g`/`r`/`s`, §4.2).
    pub modifications: &'static str,
}

/// Problem-size selection.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum Scale {
    /// Model-checker kernels: drastically reduced inputs sized so
    /// exhaustive DPOR exploration terminates in seconds.
    Tiny,
    /// Laptop-scale inputs (default).
    #[default]
    Small,
    /// The paper's input sets.
    Paper,
}

impl Scale {
    /// CLI/JSON slug.
    pub fn slug(self) -> &'static str {
        match self {
            Scale::Tiny => "tiny",
            Scale::Small => "small",
            Scale::Paper => "paper",
        }
    }

    /// Parses the CLI/JSON slug.
    pub fn parse(s: &str) -> Option<Scale> {
        match s {
            "tiny" => Some(Scale::Tiny),
            "small" => Some(Scale::Small),
            "paper" => Some(Scale::Paper),
            _ => None,
        }
    }
}

/// Builds the given application (shared allocations happen on `b`).
pub fn build_app(b: &mut CvmBuilder, id: AppId, scale: Scale) -> AppBody {
    match (id, scale) {
        (AppId::Barnes, Scale::Tiny) => barnes::build(b, barnes::BarnesConfig::tiny()),
        (AppId::Fft, Scale::Tiny) => fft::build(b, fft::FftConfig::tiny()),
        (AppId::Ocean, Scale::Tiny) => ocean::build(b, ocean::OceanConfig::tiny()),
        (AppId::Sor, Scale::Tiny) => sor::build(b, sor::SorConfig::tiny()),
        (AppId::Swm750, Scale::Tiny) => swm::build(b, swm::SwmConfig::tiny()),
        (AppId::WaterSp, Scale::Tiny) => water_sp::build(b, water_sp::WaterSpConfig::tiny()),
        (AppId::WaterNsq, Scale::Tiny) => water_nsq::build(b, water_nsq::WaterNsqConfig::tiny()),
        (AppId::Barnes, Scale::Small) => barnes::build(b, barnes::BarnesConfig::small()),
        (AppId::Barnes, Scale::Paper) => barnes::build(b, barnes::BarnesConfig::paper()),
        (AppId::Fft, Scale::Small) => fft::build(b, fft::FftConfig::small()),
        (AppId::Fft, Scale::Paper) => fft::build(b, fft::FftConfig::paper()),
        (AppId::Ocean, Scale::Small) => ocean::build(b, ocean::OceanConfig::small()),
        (AppId::Ocean, Scale::Paper) => ocean::build(b, ocean::OceanConfig::paper()),
        (AppId::Sor, Scale::Small) => sor::build(b, sor::SorConfig::small()),
        (AppId::Sor, Scale::Paper) => sor::build(b, sor::SorConfig::paper()),
        (AppId::Swm750, Scale::Small) => swm::build(b, swm::SwmConfig::small()),
        (AppId::Swm750, Scale::Paper) => swm::build(b, swm::SwmConfig::paper()),
        (AppId::WaterSp, Scale::Small) => water_sp::build(b, water_sp::WaterSpConfig::small()),
        (AppId::WaterSp, Scale::Paper) => water_sp::build(b, water_sp::WaterSpConfig::paper()),
        (AppId::WaterNsq, Scale::Small) => water_nsq::build(b, water_nsq::WaterNsqConfig::small()),
        (AppId::WaterNsq, Scale::Paper) => water_nsq::build(b, water_nsq::WaterNsqConfig::paper()),
    }
}

/// A source modification the paper measures, built in place of one
/// application's stock program.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Variant {
    /// One of Table 5's Water-Nsq programs (the stock one is `BothOpts`).
    WaterNsq(WaterNsqOpt),
    /// Ocean without the `r` (local-barrier reduction) modification — the
    /// ablation for the paper's second limiting factor ("reduction
    /// operations").
    OceanWithoutReduction,
}

impl Variant {
    /// The application this variant modifies.
    pub fn app(self) -> AppId {
        match self {
            Variant::WaterNsq(_) => AppId::WaterNsq,
            Variant::OceanWithoutReduction => AppId::Ocean,
        }
    }
}

/// Builds `variant` of its application at `scale`.
pub fn build_variant(b: &mut CvmBuilder, variant: Variant, scale: Scale) -> AppBody {
    match variant {
        Variant::WaterNsq(opt) => {
            let mut cfg = match scale {
                Scale::Tiny => water_nsq::WaterNsqConfig::tiny(),
                Scale::Small => water_nsq::WaterNsqConfig::small(),
                Scale::Paper => water_nsq::WaterNsqConfig::paper(),
            };
            cfg.opt = opt;
            water_nsq::build(b, cfg)
        }
        Variant::OceanWithoutReduction => {
            let mut cfg = match scale {
                Scale::Tiny => ocean::OceanConfig::tiny(),
                Scale::Small => ocean::OceanConfig::small(),
                Scale::Paper => ocean::OceanConfig::paper(),
            };
            cfg.use_reduction = false;
            ocean::build(b, cfg)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table1_metadata_is_complete() {
        for id in AppId::ALL {
            let m = id.meta();
            assert_eq!(m.name, id.name());
            assert!(!m.sync.is_empty());
            assert!(!m.input_paper.is_empty());
        }
    }

    #[test]
    fn ocean_rejects_three_threads() {
        assert!(AppId::Ocean.supports_threads(1));
        assert!(AppId::Ocean.supports_threads(2));
        assert!(!AppId::Ocean.supports_threads(3));
        assert!(AppId::Ocean.supports_threads(4));
        assert!(AppId::Sor.supports_threads(3));
    }

    #[test]
    fn names_are_paper_names() {
        let names: Vec<&str> = AppId::ALL.iter().map(|a| a.name()).collect();
        assert_eq!(
            names,
            [
                "Barnes",
                "FFT",
                "Ocean",
                "SOR",
                "Water-Sp",
                "SWM750",
                "Water-Nsq"
            ]
        );
    }
}
