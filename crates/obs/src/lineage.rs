//! Measurement lineage: the causal identity of one cached RTT.
//!
//! Every estimate the scanner accepts is minted a [`Lineage`] — the
//! shard that ran the probe and the scan round that produced it. The
//! id rides the whole write path: pair measurement → scanner
//! checkpoint (v3) → `Supervisor::take_delta` delta → merged document
//! (v2) → journal record → published snapshot. The serving layer then
//! joins it with the publish generation into an [`Origin`], so every
//! served answer can name the exact probe, shard, and generation that
//! produced it — the audit trail `ting-prof lineage` walks.
//!
//! Lineage is plain data: tracking it changes no scheduling, no
//! arithmetic, and no event stream, so an [`crate::ObsConfig::Off`]
//! run stays bit-identical to a pre-lineage one.

/// The provenance of one accepted pair measurement: which shard's
/// scanner measured it, in which of that scanner's scan rounds.
///
/// Round numbers start at 1; round 0 means "unknown".
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct Lineage {
    /// The shard whose scanner accepted the measurement.
    pub shard: u32,
    /// That scanner's round counter when the estimate was cached
    /// (1-based; 0 = unknown).
    pub round: u64,
}

/// The full origin triple a served answer cites: the measurement's
/// [`Lineage`] joined with the publish generation that carried it into
/// the serving snapshot.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Origin {
    pub shard: u32,
    pub round: u64,
    /// The snapshot generation (== oracle version == journal record)
    /// the answer was served from.
    pub generation: u64,
}

impl Origin {
    /// Joins a lineage with the generation it was served under.
    pub fn of(lineage: Lineage, generation: u64) -> Origin {
        Origin {
            shard: lineage.shard,
            round: lineage.round,
            generation,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn origin_joins_lineage_and_generation() {
        let o = Origin::of(Lineage { shard: 2, round: 9 }, 41);
        assert_eq!(
            o,
            Origin {
                shard: 2,
                round: 9,
                generation: 41
            }
        );
    }
}
