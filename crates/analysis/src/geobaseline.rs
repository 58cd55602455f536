//! Geographic distance as a latency predictor — the proxy Ting
//! obsoletes (§5.2).
//!
//! "LASTor relies on geographic distances as a proxy for latencies;
//! while we have shown a strong correlation between distance and RTT
//! (Section 4), we demonstrate here that there are many instances where
//! latency can be reduced in ways that geographic distance cannot
//! predict… Distances do not violate the triangle inequality, while Tor
//! often does."
//!
//! [`GeoPredictor`] fits `RTT ≈ slope·km + intercept` on geolocation
//! data (error-prone, like any real deployment's) and predicts pair
//! RTTs from it. The two structural comparisons against measured data:
//!
//! * rank agreement (how much ordering information distance preserves);
//! * TIV blindness: a distance predictor finds exactly **zero** TIVs,
//!   so every detour opportunity is invisible to it.

use geo::{GeoDb, GeoPoint};
use netsim::NodeId;
use rand::Rng;
use stats::{linear_fit, LinearFit};
use ting::RttMatrix;

/// A fitted distance→RTT predictor.
#[derive(Debug, Clone)]
pub struct GeoPredictor {
    fit: LinearFit,
    positions: Vec<(NodeId, GeoPoint)>,
}

impl GeoPredictor {
    /// Fits on a *training* matrix (the measurements a LASTor-style
    /// system would bootstrap from) plus geolocated positions.
    ///
    /// Returns `None` if fewer than two geolocated pairs exist.
    pub fn fit<R: Rng + ?Sized>(
        matrix: &RttMatrix,
        geodb: &GeoDb,
        rng: &mut R,
    ) -> Option<GeoPredictor> {
        let mut positions = Vec::new();
        for &n in matrix.nodes() {
            let est = geodb.estimate(n.index(), rng)?;
            positions.push((n, est));
        }
        let lookup = |n: NodeId| -> GeoPoint {
            positions
                .iter()
                .find(|(m, _)| *m == n)
                .map(|(_, p)| *p)
                .expect("position exists")
        };
        let mut xs = Vec::new();
        let mut ys = Vec::new();
        for (a, b, rtt) in matrix.pairs() {
            xs.push(geo::great_circle_km(lookup(a), lookup(b)));
            ys.push(rtt);
        }
        Some(GeoPredictor {
            fit: linear_fit(&xs, &ys)?,
            positions,
        })
    }

    /// Predicted RTT for a pair (ms). `None` if either node was not in
    /// the training set.
    pub fn predict(&self, a: NodeId, b: NodeId) -> Option<f64> {
        let pa = self.positions.iter().find(|(n, _)| *n == a)?.1;
        let pb = self.positions.iter().find(|(n, _)| *n == b)?.1;
        Some(self.fit.predict(geo::great_circle_km(pa, pb)).max(0.0))
    }

    /// A full predicted matrix over the training nodes.
    #[cfg(test)]
    fn predicted_matrix(&self) -> RttMatrix {
        let nodes: Vec<NodeId> = self.positions.iter().map(|(n, _)| *n).collect();
        let mut m = RttMatrix::new(nodes.clone());
        for (i, &a) in nodes.iter().enumerate() {
            for &b in &nodes[i + 1..] {
                m.set(a, b, self.predict(a, b).expect("trained"));
            }
        }
        m
    }

    /// Spearman rank correlation between predictions and `truth`.
    #[cfg(test)]
    fn rank_agreement(&self, truth: &RttMatrix) -> Option<f64> {
        let mut pred = Vec::new();
        let mut real = Vec::new();
        for (a, b, rtt) in truth.pairs() {
            pred.push(self.predict(a, b)?);
            real.push(rtt);
        }
        stats::spearman(&pred, &real)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tiv::TivReport;
    use geo::GeoErrorModel;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;
    use tor_sim::TorNetworkBuilder;

    fn setup() -> (RttMatrix, GeoDb) {
        let mut net = TorNetworkBuilder::live(4001, 60).build();
        let nodes: Vec<NodeId> = net.relays.iter().copied().take(15).collect();
        let mut m = RttMatrix::new(nodes.clone());
        for i in 0..nodes.len() {
            for j in (i + 1)..nodes.len() {
                let t = net.true_rtt_ms(nodes[i], nodes[j]);
                m.set(nodes[i], nodes[j], t);
            }
        }
        let mut geodb = GeoDb::new(GeoErrorModel::default());
        for &n in &nodes {
            geodb.insert(n.index(), net.sim.underlay().node(n.index()).location);
        }
        (m, geodb)
    }

    #[test]
    fn distance_correlates_but_less_than_measurement() {
        let (truth, geodb) = setup();
        let mut rng = SmallRng::seed_from_u64(1);
        let pred = GeoPredictor::fit(&truth, &geodb, &mut rng).unwrap();
        let rho = pred.rank_agreement(&truth).unwrap();
        // §4.5: strong correlation — but not Ting's 0.997.
        assert!(rho > 0.6, "distance lost all signal: {rho}");
        assert!(rho < 0.995, "distance implausibly perfect: {rho}");
    }

    #[test]
    fn geographic_predictions_have_no_tivs() {
        // The §5.2.1 structural point: distances obey the triangle
        // inequality, so the predictor is blind to every detour — but a
        // linear fit's positive intercept technically permits tiny
        // violations, so allow a sliver.
        let (truth, geodb) = setup();
        let mut rng = SmallRng::seed_from_u64(2);
        let pred = GeoPredictor::fit(&truth, &geodb, &mut rng).unwrap();
        let geo_matrix = pred.predicted_matrix();
        let geo_tivs = TivReport::analyze(&geo_matrix);
        let real_tivs = TivReport::analyze(&truth);
        // Distance predictor sees at most trivial savings; the real
        // matrix sees substantial ones.
        let geo_p90 = stats::quantile(
            &geo_tivs
                .savings_distribution()
                .iter()
                .copied()
                .chain(std::iter::once(0.0))
                .collect::<Vec<_>>(),
            0.9,
        )
        .unwrap();
        let real_best = real_tivs
            .savings_distribution()
            .iter()
            .copied()
            .fold(0.0f64, f64::max);
        assert!(
            real_best > geo_p90 + 5.0,
            "real detours ({real_best}%) should beat geo-visible ones ({geo_p90}%)"
        );
    }

    #[test]
    fn fit_slope_positive() {
        let (truth, geodb) = setup();
        let mut rng = SmallRng::seed_from_u64(3);
        let pred = GeoPredictor::fit(&truth, &geodb, &mut rng).unwrap();
        assert!(pred.fit.slope > 0.0);
        // Longer distance → larger prediction.
        let nodes = truth.nodes();
        let p = pred.predict(nodes[0], nodes[1]).unwrap();
        assert!(p >= 0.0);
    }

    #[test]
    fn unknown_node_predicts_none() {
        let (truth, geodb) = setup();
        let mut rng = SmallRng::seed_from_u64(4);
        let pred = GeoPredictor::fit(&truth, &geodb, &mut rng).unwrap();
        assert!(pred.predict(NodeId(9999), truth.nodes()[0]).is_none());
    }
}
