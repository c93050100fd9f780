//! Gaia hyper-parameters and ablation variants.

use gaia_graph::EgoConfig;
use serde::{Deserialize, Serialize};

/// Which variant of the architecture to build — `Full` is the paper's model,
/// the others are the Table II ablations.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum GaiaVariant {
    /// The complete model (FFL + TEL + ITA-GCN).
    Full,
    /// "w/o ITA": the temporal-shift-aware CAU is replaced by traditional
    /// self-attention (pointwise linear Q/K/V, no convolutional locality, no
    /// causal mask).
    NoIta,
    /// "w/o FFL": the fine-grained three-way feature fusion is replaced by a
    /// single coarse projection of the raw concatenated features.
    NoFfl,
    /// "w/o TEL": the kernel *group* is replaced by one `{4 x C; C}` kernel.
    NoTel,
}

impl GaiaVariant {
    /// Display label matching Table II.
    pub fn label(self) -> &'static str {
        match self {
            GaiaVariant::Full => "Gaia",
            GaiaVariant::NoIta => "w/o ITA",
            GaiaVariant::NoFfl => "w/o FFL",
            GaiaVariant::NoTel => "w/o TEL",
        }
    }
}

/// Element storage of the frozen cache a publish writes (see
/// [`crate::EmbedCache`]); it never changes the model or its training.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
pub enum CacheTier {
    /// Raw `f32`: the forward pass's own bits.
    #[default]
    F32,
    /// IEEE 754 binary16 bits ([`crate::half`]) at half the bytes: stored
    /// in f16, dequantised into f32 tape buffers on read (Micikevicius et
    /// al., *Mixed Precision Training*, ICLR 2018).
    F16,
}

impl CacheTier {
    /// Both tiers, for walls that run each.
    pub const ALL: [CacheTier; 2] = [CacheTier::F32, CacheTier::F16];

    /// Whether `got` matches `want` within the tier's serving budget, the
    /// relative deviation a value served from this tier may show against
    /// the uncached forward pass (`|g - w| ≤ budget · max(|w|, 1)`): `0`
    /// (exact) for F32, `5e-3` for F16, whose `2^-11` half round-trip the
    /// network amplifies. `floor` raises it for other kernels (`simd`).
    pub fn within_budget(self, got: &[f32], want: &[f32], floor: f32) -> bool {
        let budget = match self {
            CacheTier::F32 => 0.0,
            CacheTier::F16 => 5e-3,
        };
        let rel = floor.max(budget);
        got.len() == want.len()
            && got
                .iter()
                .zip(want)
                .all(|(&g, &w)| g == w || (g - w).abs() <= rel * w.abs().max(1.0))
    }
}

/// Model hyper-parameters. Defaults follow Section V-A3: embedding size 32,
/// 2 stacked ITA-GCN layers.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct GaiaConfig {
    /// Channel width `C` (paper: 32).
    pub channels: usize,
    /// Input window `T` (paper: 24 months).
    pub t: usize,
    /// Forecast horizon `T'` (paper: 3 months).
    pub horizon: usize,
    /// Auxiliary temporal feature width `D_T`.
    pub d_t: usize,
    /// Static feature width `D_S`.
    pub d_s: usize,
    /// Number of TEL kernel groups `K`; kernel widths are `2, 4, ..., 2^K`
    /// and each group emits `C/K` channels. Must divide `channels`.
    pub kernel_groups: usize,
    /// Stacked ITA-GCN layers `L` (paper: 2).
    pub layers: usize,
    /// Ego-subgraph extraction parameters (hops should equal `layers`).
    pub ego: EgoConfig,
    /// Architecture variant.
    pub variant: GaiaVariant,
    /// Frozen cache tier of a full publish (a delta publish inherits the
    /// previous cache's).
    pub cache_tier: CacheTier,
}

impl GaiaConfig {
    /// Paper-shaped defaults for a dataset with the given feature widths.
    pub fn new(t: usize, horizon: usize, d_t: usize, d_s: usize) -> Self {
        Self {
            channels: 32,
            t,
            horizon,
            d_t,
            d_s,
            kernel_groups: 4,
            layers: 2,
            ego: EgoConfig { hops: 2, fanout: 6 },
            variant: GaiaVariant::Full,
            cache_tier: CacheTier::F32,
        }
    }

    /// Same configuration with a different variant.
    pub fn with_variant(mut self, variant: GaiaVariant) -> Self {
        self.variant = variant;
        self
    }

    /// Validate divisibility and sizes.
    pub fn validate(&self) -> Result<(), String> {
        if self.channels == 0 || self.t == 0 || self.horizon == 0 || self.layers == 0 {
            return Err("channels, t, horizon and layers must be positive".into());
        }
        if self.kernel_groups == 0 || !self.channels.is_multiple_of(self.kernel_groups) {
            return Err(format!(
                "kernel_groups {} must divide channels {}",
                self.kernel_groups, self.channels
            ));
        }
        let max_kernel = 1usize << self.kernel_groups;
        if max_kernel > self.t {
            return Err(format!(
                "largest TEL kernel 2^K = {} exceeds window T = {}",
                max_kernel, self.t
            ));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_validate() {
        assert!(GaiaConfig::new(24, 3, 5, 20).validate().is_ok());
    }

    #[test]
    fn kernel_group_divisibility_checked() {
        let mut c = GaiaConfig::new(24, 3, 5, 20);
        c.kernel_groups = 5; // 32 % 5 != 0
        assert!(c.validate().is_err());
    }

    #[test]
    fn oversized_kernel_rejected() {
        let mut c = GaiaConfig::new(8, 3, 5, 20);
        c.kernel_groups = 4; // kernel 16 > T=8
        assert!(c.validate().is_err());
    }

    #[test]
    fn variant_labels() {
        assert_eq!(GaiaVariant::Full.label(), "Gaia");
        assert_eq!(GaiaVariant::NoTel.label(), "w/o TEL");
    }
}
