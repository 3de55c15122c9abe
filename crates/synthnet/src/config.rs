//! Generator calibration.
//!
//! Every knob of the synthetic Internet lives here. The presets are
//! calibrated so that the emitted datasets land near the paper's §5
//! statistics:
//!
//! * [`GeneratorConfig::paper`] — full scale (≈117k WHOIS ASNs, ≈31k
//!   PeeringDB networks), used by the evaluation binaries;
//! * [`GeneratorConfig::medium`] — ~10% scale for integration tests and
//!   benches;
//! * [`GeneratorConfig::tiny`] — a few hundred ASNs for unit tests.

use serde::{Deserialize, Serialize};

/// All generator knobs. Counts are *organization* counts per category;
/// ASN counts follow from the per-category size distributions.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct GeneratorConfig {
    /// RNG seed; two runs with the same config are byte-identical.
    pub seed: u64,

    // ----- world composition -------------------------------------------
    /// Single-ASN organizations (the overwhelming majority of the world).
    pub singleton_orgs: usize,
    /// Small multi-ASN organizations (2–4 ASNs, one country).
    pub small_multi_orgs: usize,
    /// International conglomerates (regional subsidiaries in many
    /// countries — the Deutsche Telekom / Claro / Digicel shape).
    pub conglomerates: usize,
    /// Transit providers (ASN count correlated with AS-Rank).
    pub transit_orgs: usize,
    /// Government mega-orgs (the DNIC/DoD shape: hundreds of ASNs under
    /// one WHOIS org).
    pub gov_mega_orgs: usize,
    /// ASNs per government mega-org.
    pub gov_mega_asns: usize,

    // ----- PeeringDB registration --------------------------------------
    /// Probability that a singleton org registers in PeeringDB.
    pub pdb_rate_singleton: f64,
    /// Probability that a small-multi org's ASN registers.
    pub pdb_rate_small_multi: f64,
    /// Probability that a conglomerate unit registers.
    pub pdb_rate_conglomerate: f64,
    /// Probability that a transit ASN registers.
    pub pdb_rate_transit: f64,
    /// Probability that a registered conglomerate is consolidated under a
    /// single PeeringDB org (the CenturyLink+Level3 shape) rather than
    /// split per unit.
    pub pdb_consolidation_rate: f64,

    // ----- WHOIS fragmentation ------------------------------------------
    /// Probability that a conglomerate unit gets its own WHOIS org record
    /// (vs. sharing the parent's).
    pub whois_fragmentation_rate: f64,

    // ----- free-text behaviour ------------------------------------------
    /// Probability that a registered network fills in notes/aka at all.
    pub text_rate: f64,
    /// Probability that a conglomerate flagship's notes report sibling
    /// ASNs.
    pub sibling_report_rate: f64,
    /// Probability that a registered network's text contains numeric decoys
    /// (upstream lists, phones, years, prefix limits) without siblings.
    pub decoy_rate: f64,

    // ----- web behaviour -------------------------------------------------
    /// Probability that a registered network fills in a website.
    pub website_rate: f64,
    /// Probability that a site referenced in PeeringDB is dead.
    pub dead_site_rate: f64,
    /// Probability that an acquired-but-unrebranded unit's site redirects
    /// to the parent (the R&R signal).
    pub redirect_rate: f64,
    /// Probability that a redirect chain has an extra intermediate hop
    /// (the Clearwire → Sprint → T-Mobile shape).
    pub chained_redirect_rate: f64,
    /// Probability that a redirect is implemented in JavaScript (needs a
    /// headless browser to follow).
    pub js_redirect_rate: f64,
    /// Probability that a singleton's site uses a framework default
    /// favicon instead of its own.
    pub framework_favicon_rate: f64,
    /// Probability that a singleton reports a social-platform URL
    /// (facebook/github/…) as its website — the blocklist cases.
    pub social_website_rate: f64,

    // ----- population ----------------------------------------------------
    /// Total Internet user population to distribute (the paper works
    /// against ≈4.21 B).
    pub total_users: u64,
}

impl GeneratorConfig {
    /// Full paper scale (§5.1-§5.2 statistics).
    pub fn paper(seed: u64) -> Self {
        GeneratorConfig {
            seed,
            singleton_orgs: 84_000,
            small_multi_orgs: 7_000,
            conglomerates: 420,
            transit_orgs: 700,
            gov_mega_orgs: 10,
            gov_mega_asns: 650,
            ..Self::rates(seed)
        }
    }

    /// ~10% scale for integration tests and benches.
    pub fn medium(seed: u64) -> Self {
        GeneratorConfig {
            seed,
            singleton_orgs: 8_400,
            small_multi_orgs: 700,
            conglomerates: 42,
            transit_orgs: 70,
            gov_mega_orgs: 1,
            gov_mega_asns: 97,
            ..Self::rates(seed)
        }
    }

    /// Larger-than-paper scale (~130k ASNs) for the streaming generator
    /// and the compile bench. Worlds this size should be
    /// generated with [`crate::stream::generate_to_dir`], which never
    /// materializes them in memory.
    pub fn large(seed: u64) -> Self {
        GeneratorConfig {
            seed,
            singleton_orgs: 100_000,
            small_multi_orgs: 8_000,
            conglomerates: 500,
            transit_orgs: 800,
            gov_mega_orgs: 10,
            gov_mega_asns: 700,
            ..Self::rates(seed)
        }
    }

    /// The ROADMAP's north-star scale: ~1M ASNs. Streaming-only in
    /// practice; materializing a world this size multiplies every record
    /// several times over in RAM.
    pub fn million(seed: u64) -> Self {
        GeneratorConfig {
            seed,
            singleton_orgs: 780_000,
            small_multi_orgs: 60_000,
            conglomerates: 4_000,
            transit_orgs: 6_000,
            gov_mega_orgs: 20,
            gov_mega_asns: 1_000,
            ..Self::rates(seed)
        }
    }

    /// A few hundred ASNs for unit tests.
    pub fn tiny(seed: u64) -> Self {
        GeneratorConfig {
            seed,
            singleton_orgs: 300,
            small_multi_orgs: 30,
            conglomerates: 8,
            transit_orgs: 6,
            gov_mega_orgs: 1,
            gov_mega_asns: 12,
            ..Self::rates(seed)
        }
    }

    /// The behavioural rates shared by all presets (calibrated once
    /// against §5.2's funnel).
    fn rates(seed: u64) -> Self {
        GeneratorConfig {
            seed,
            singleton_orgs: 0,
            small_multi_orgs: 0,
            conglomerates: 0,
            transit_orgs: 0,
            gov_mega_orgs: 0,
            gov_mega_asns: 0,
            pdb_rate_singleton: 0.22,
            pdb_rate_small_multi: 0.45,
            pdb_rate_conglomerate: 0.72,
            pdb_rate_transit: 0.85,
            pdb_consolidation_rate: 0.60,
            whois_fragmentation_rate: 0.55,
            text_rate: 0.57,
            sibling_report_rate: 0.30,
            decoy_rate: 0.075,
            website_rate: 0.85,
            dead_site_rate: 0.14,
            redirect_rate: 0.55,
            chained_redirect_rate: 0.25,
            js_redirect_rate: 0.30,
            framework_favicon_rate: 0.16,
            social_website_rate: 0.015,
            total_users: 4_210_000_000,
        }
    }

    /// The *expected* ASN total for this config — exact in expectation,
    /// not a guess: each term is the category count times the mean of
    /// its per-org size distribution in the generator (gov mega-orgs
    /// and scripted anecdotes are deterministic, so those terms are
    /// exact, full stop). Bench labels and CI sizing use this; actual
    /// generated counts land within a few percent because the random
    /// categories (small-multi, conglomerate, transit) concentrate
    /// tightly around their means at any realistic org count.
    pub fn approx_asn_count(&self) -> usize {
        // Uniform 2..=4 units per small-multi org.
        let small_multi = self.small_multi_orgs * 3;
        // Conglomerate size classes [0.45, 0.30, 0.18, 0.07] over
        // uniform 2..=4, 5..=8, 9..=15, 14..=22 ⇒ mean 6.72 units.
        let conglomerate = (self.conglomerates as f64 * 6.72).round() as usize;
        // Transit size classes [0.40, 0.25, 0.20, 0.10, 0.05] over
        // 1, 2, 3..=4, 5..=8, 9..=14 ⇒ mean 2.825 units.
        let transit = (self.transit_orgs as f64 * 2.825).round() as usize;
        // Deterministic: max(gov_mega_asns / (i+1), 10) units for org i.
        let gov: usize = (0..self.gov_mega_orgs)
            .map(|i| (self.gov_mega_asns / (i + 1)).max(10))
            .sum();
        scripted_asn_count() + self.singleton_orgs + small_multi + conglomerate + transit + gov
    }
}

/// ASNs contributed by the scripted paper anecdotes, present in every
/// world regardless of scale.
fn scripted_asn_count() -> usize {
    let mut next_id = 0;
    crate::scripted::scripted_orgs(&mut next_id)
        .iter()
        .map(|o| o.units.len())
        .sum()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_scale_is_in_the_whois_ballpark() {
        let c = GeneratorConfig::paper(1);
        let n = c.approx_asn_count();
        assert!(
            (100_000..140_000).contains(&n),
            "approx ASN count {n} far from the paper's 117k"
        );
    }

    #[test]
    fn presets_differ_only_in_scale() {
        let p = GeneratorConfig::paper(1);
        let t = GeneratorConfig::tiny(1);
        assert_eq!(p.text_rate, t.text_rate);
        assert_eq!(p.website_rate, t.website_rate);
        assert!(p.singleton_orgs > t.singleton_orgs);
    }

    #[test]
    fn large_preset_clears_the_scale_floor() {
        assert!(GeneratorConfig::large(1).approx_asn_count() >= 100_000);
    }

    #[test]
    fn million_preset_is_million_scale() {
        let n = GeneratorConfig::million(1).approx_asn_count();
        assert!(
            (950_000..1_100_000).contains(&n),
            "million preset expects {n} ASNs"
        );
    }

    #[test]
    fn expected_count_is_exact_for_deterministic_categories() {
        // A config with only deterministic categories (gov + scripted)
        // must predict the generated world's size *exactly*.
        let config = GeneratorConfig {
            singleton_orgs: 0,
            small_multi_orgs: 0,
            conglomerates: 0,
            transit_orgs: 0,
            gov_mega_orgs: 3,
            gov_mega_asns: 40,
            ..GeneratorConfig::tiny(9)
        };
        let world = crate::SyntheticInternet::generate(&config);
        assert_eq!(world.truth.asn_count(), config.approx_asn_count());
    }

    #[test]
    fn expected_count_tracks_generated_worlds_closely() {
        for seed in [3, 17] {
            let config = GeneratorConfig::tiny(seed);
            let world = crate::SyntheticInternet::generate(&config);
            let expected = config.approx_asn_count();
            let actual = world.truth.asn_count();
            let err = (actual as f64 - expected as f64).abs() / expected as f64;
            assert!(
                err < 0.10,
                "seed {seed}: expected {expected}, generated {actual} ({:.1}% off)",
                err * 100.0
            );
        }
    }

    #[test]
    fn config_serializes() {
        let c = GeneratorConfig::tiny(7);
        let j = serde_json::to_string(&c).unwrap();
        let back: GeneratorConfig = serde_json::from_str(&j).unwrap();
        assert_eq!(back, c);
    }
}
