//! Configuration of a precomputed walk index.

use frogwild_graph::VertexId;

use crate::error::Error;

/// Configuration of a [`WalkIndex`](super::WalkIndex) build and of the queries served
/// from it.
///
/// The two structural knobs are `segments_per_vertex` (`R`) and `segment_length` (`L`):
/// the index stores `R` pure random-walk segments of `L` hops from every vertex, in a
/// fixed-stride arena of exactly `n · R · L` four-byte slots (a segment that reached a
/// sink early is padded, not packed). More segments mean lower estimator variance;
/// longer segments mean fewer stitches per walk. `memory_budget_bytes` caps the arena
/// size by shrinking `R` (never `L`), so one number bounds the index footprint
/// regardless of graph size.
///
/// The two accuracy knobs for serving are `frontier_epsilon` — how far the forward-push
/// phase localizes a PPR query before walks take over — and `walks_per_unit_residual` —
/// how many stitched walks are spent per unit of residual mass the push left behind.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct WalkIndexConfig {
    /// Walk segments precomputed per vertex (`R`). Subject to the memory budget: the
    /// effective count can be lower, see [`WalkIndexConfig::effective_segments`].
    pub segments_per_vertex: usize,
    /// Hops per segment (`L`). Segments end early only at dangling vertices.
    pub segment_length: usize,
    /// Residual threshold of the forward-push phase of an index-served PPR query.
    /// Coarser (larger) values shift work from pushes to stitched walks.
    pub frontier_epsilon: f64,
    /// Stitched walks spent per unit of residual mass when serving a PPR query; the
    /// main accuracy/latency dial of index serving.
    pub walks_per_unit_residual: u64,
    /// Upper bound on the index arena size in bytes (`n · R · L · 4`).
    /// `usize::MAX` (the default) means unbounded.
    pub memory_budget_bytes: usize,
    /// Seed for segment generation and query-time stitching decisions.
    pub seed: u64,
}

impl Default for WalkIndexConfig {
    fn default() -> Self {
        WalkIndexConfig {
            segments_per_vertex: 16,
            segment_length: 8,
            frontier_epsilon: 1e-4,
            walks_per_unit_residual: 3_000,
            memory_budget_bytes: usize::MAX,
            seed: 0x1DE7,
        }
    }
}

impl WalkIndexConfig {
    /// Validates the configuration, returning the first problem found as a typed
    /// [`Error::InvalidConfig`].
    pub fn validate(&self) -> Result<(), Error> {
        const CTX: &str = "WalkIndexConfig";
        if self.segments_per_vertex == 0 {
            return Err(Error::config(CTX, "segments_per_vertex must be positive"));
        }
        if self.segment_length == 0 {
            return Err(Error::config(CTX, "segment_length must be positive"));
        }
        if !(self.frontier_epsilon > 0.0 && self.frontier_epsilon.is_finite()) {
            return Err(Error::config(
                CTX,
                format!(
                    "frontier_epsilon must be positive and finite, got {}",
                    self.frontier_epsilon
                ),
            ));
        }
        if self.walks_per_unit_residual == 0 {
            return Err(Error::config(
                CTX,
                "walks_per_unit_residual must be positive",
            ));
        }
        if self.memory_budget_bytes == 0 {
            return Err(Error::config(CTX, "memory_budget_bytes must be positive"));
        }
        Ok(())
    }

    /// The arena's size in bytes for `num_vertices` vertices at `segments` segments per
    /// vertex — exact, not a bound: the arena is `num_vertices · segments ·
    /// segment_length` slots of four bytes whatever the graph looks like. Saturates at
    /// `usize::MAX` when the product does not fit.
    pub fn estimated_bytes(&self, num_vertices: usize, segments: usize) -> usize {
        self.checked_bytes(num_vertices, segments)
            .unwrap_or(usize::MAX)
    }

    /// [`estimated_bytes`](Self::estimated_bytes), `None` on overflow.
    fn checked_bytes(&self, num_vertices: usize, segments: usize) -> Option<usize> {
        num_vertices
            .checked_mul(segments)?
            .checked_mul(self.segment_length)?
            .checked_mul(std::mem::size_of::<VertexId>())
    }

    /// The per-vertex segment count the memory budget allows: the largest
    /// `r <= segments_per_vertex` whose arena fits in `memory_budget_bytes`.
    ///
    /// # Errors
    ///
    /// [`Error::InvalidConfig`] when even a single segment per vertex does not fit,
    /// or when the requested index is too large to size at all.
    pub fn effective_segments(&self, num_vertices: usize) -> Result<usize, Error> {
        const CTX: &str = "WalkIndexConfig";
        let Some(requested) = self.checked_bytes(num_vertices, self.segments_per_vertex) else {
            return Err(Error::config(
                CTX,
                format!(
                    "{} length-{} segments for each of {} vertices overflow the address space",
                    self.segments_per_vertex, self.segment_length, num_vertices
                ),
            ));
        };
        if requested <= self.memory_budget_bytes {
            return Ok(self.segments_per_vertex);
        }
        // The arena is a fixed number of bytes per segment count, so the largest count
        // that fits is a division, not a search.
        let one = self.estimated_bytes(num_vertices, 1);
        let fits = self.memory_budget_bytes.checked_div(one).unwrap_or(0);
        if fits == 0 {
            return Err(Error::config(
                CTX,
                format!(
                    "memory budget of {} bytes cannot hold even one length-{} segment for each \
                     of the {} vertices ({one} bytes needed)",
                    self.memory_budget_bytes, self.segment_length, num_vertices,
                ),
            ));
        }
        Ok(fits)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_are_valid() {
        assert!(WalkIndexConfig::default().validate().is_ok());
    }

    #[test]
    fn validation_rejects_each_bad_field() {
        let base = WalkIndexConfig::default();
        for bad in [
            WalkIndexConfig {
                segments_per_vertex: 0,
                ..base
            },
            WalkIndexConfig {
                segment_length: 0,
                ..base
            },
            WalkIndexConfig {
                frontier_epsilon: 0.0,
                ..base
            },
            WalkIndexConfig {
                frontier_epsilon: f64::INFINITY,
                ..base
            },
            WalkIndexConfig {
                walks_per_unit_residual: 0,
                ..base
            },
            WalkIndexConfig {
                memory_budget_bytes: 0,
                ..base
            },
        ] {
            assert!(
                matches!(
                    bad.validate(),
                    Err(Error::InvalidConfig {
                        context: "WalkIndexConfig",
                        ..
                    })
                ),
                "{bad:?} should fail validation"
            );
        }
    }

    #[test]
    fn budget_shrinks_the_segment_count() {
        let cfg = WalkIndexConfig {
            segments_per_vertex: 8,
            segment_length: 10,
            ..WalkIndexConfig::default()
        };
        let n = 1_000;
        // Unbounded: the full count.
        assert_eq!(cfg.effective_segments(n).unwrap(), 8);
        // Enough for about half the segments.
        let half = WalkIndexConfig {
            memory_budget_bytes: cfg.estimated_bytes(n, 4),
            ..cfg
        };
        assert_eq!(half.effective_segments(n).unwrap(), 4);
        // Not even one segment fits.
        let tiny = WalkIndexConfig {
            memory_budget_bytes: 16,
            ..cfg
        };
        assert!(matches!(
            tiny.effective_segments(n),
            Err(Error::InvalidConfig { .. })
        ));
        // The arithmetic is exact: one byte short of a single segment per vertex is
        // still an error, and that byte is all it takes.
        let one = cfg.estimated_bytes(n, 1);
        assert_eq!(one, n * 10 * 4);
        let short = WalkIndexConfig {
            memory_budget_bytes: one - 1,
            ..cfg
        };
        assert!(matches!(
            short.effective_segments(n),
            Err(Error::InvalidConfig {
                context: "WalkIndexConfig",
                ..
            })
        ));
        let exact = WalkIndexConfig {
            memory_budget_bytes: one,
            ..cfg
        };
        assert_eq!(exact.effective_segments(n).unwrap(), 1);
    }

    #[test]
    fn absurd_segment_counts_are_sized_without_overflow_or_a_search() {
        let n = 1_000;
        // Too large to size at all: a typed error, not a multiply overflow.
        let unsizable = WalkIndexConfig {
            segments_per_vertex: usize::MAX,
            ..WalkIndexConfig::default()
        };
        assert!(unsizable.validate().is_ok());
        assert_eq!(unsizable.estimated_bytes(n, usize::MAX), usize::MAX);
        assert!(matches!(
            unsizable.effective_segments(n),
            Err(Error::InvalidConfig {
                context: "WalkIndexConfig",
                ..
            })
        ));
        // Sizable but far over budget: the answer is a division away, however
        // many counts lie between the request and what fits.
        let over_budget = WalkIndexConfig {
            segments_per_vertex: 2_000_000_000,
            memory_budget_bytes: 1 << 20,
            ..WalkIndexConfig::default()
        };
        // 1 MiB over 1 000 vertices · 8 hops · 4 bytes = 32 000 bytes per segment count.
        let r = over_budget.effective_segments(n).unwrap();
        assert_eq!(r, 32);
        assert!(over_budget.estimated_bytes(n, r) <= 1 << 20);
        assert!(over_budget.estimated_bytes(n, r + 1) > 1 << 20);
    }

    #[test]
    fn estimated_bytes_grows_with_every_dimension() {
        let cfg = WalkIndexConfig::default();
        assert!(cfg.estimated_bytes(100, 2) < cfg.estimated_bytes(200, 2));
        assert!(cfg.estimated_bytes(100, 2) < cfg.estimated_bytes(100, 4));
        let longer = WalkIndexConfig {
            segment_length: cfg.segment_length * 2,
            ..cfg
        };
        assert!(cfg.estimated_bytes(100, 2) < longer.estimated_bytes(100, 2));
    }
}
