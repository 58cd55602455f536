//! Reverse-DNS hostname synthesis and residential classification (§5.3).
//!
//! The paper extends the residential-detection technique of Schulman &
//! Spring ("Pingin' in the rain", IMC 2011), "which involves classifying
//! hosts based on their reverse DNS name, including suffix and presence
//! of numbers", from U.S.-only to European ISPs, finding ~61% of Tor
//! relays with rDNS names to be residential, with named hosting companies
//! (linode.com, amazonaws.com, ovh.com, cloudatcost.com, your-server.de,
//! leaseweb.com) covering much of the rest.
//!
//! This module provides both halves: a generator that synthesizes rDNS
//! names with realistic residential/datacenter/unnamed structure for the
//! simulated relay population, and the classifier that the coverage
//! analysis (§5.3) runs over them. The two are developed against each
//! other the same way the paper's classifier was developed against real
//! rDNS data.

use rand::Rng;

/// Classification outcome for one reverse-DNS name.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum HostClass {
    /// Consumer access network (DSL, cable, fiber-to-the-home…).
    Residential,
    /// A known hosting/datacenter provider.
    Datacenter,
    /// Neither pattern matched.
    Unknown,
}

/// Hosting-company suffixes the paper names explicitly in §5.3.
const DATACENTER_SUFFIXES: &[&str] = &[
    "linode.com",
    "amazonaws.com",
    "ovh.com",
    "ovh.net",
    "cloudatcost.com",
    "your-server.de",
    "leaseweb.com",
    "digitalocean.com",
    "hetzner.de",
    "online.net",
];

/// Residential ISP suffixes (U.S. plus the European extension the paper
/// describes).
const RESIDENTIAL_SUFFIXES: &[&str] = &[
    // U.S.
    "comcast.net",
    "verizon.net",
    "rr.com",
    "cox.net",
    "charter.com",
    "qwest.net",
    "att.net",
    "sbcglobal.net",
    // Europe.
    "t-dialin.net",
    "t-ipconnect.de",
    "wanadoo.fr",
    "proxad.net",
    "orange.fr",
    "alicedsl.de",
    "virginmedia.com",
    "btcentralplus.com",
    "telefonica.de",
    "ziggo.nl",
    "telia.com",
    "skybroadband.com",
];

/// Infrastructure keywords that indicate an access (last-mile) network.
const ACCESS_KEYWORDS: &[&str] = &[
    "dsl",
    "dyn",
    "pool",
    "dhcp",
    "cable",
    "dip",
    "ppp",
    "fios",
    "broadband",
    "cust",
    "res",
    "home",
    "client",
    "catv",
];

/// Classifies a reverse-DNS name.
///
/// Rules, in priority order (mirroring §5.3):
/// 1. a known hosting suffix ⇒ [`HostClass::Datacenter`];
/// 2. a known residential ISP suffix ⇒ [`HostClass::Residential`];
/// 3. an access keyword in any label **and** at least two numeric groups
///    (embedded IP fragments like `pool-96-255-198-1`) ⇒ residential;
/// 4. otherwise unknown.
pub fn classify_hostname(name: &str) -> HostClass {
    let lower = name.to_ascii_lowercase();
    for suffix in DATACENTER_SUFFIXES {
        if lower.ends_with(suffix) {
            return HostClass::Datacenter;
        }
    }
    for suffix in RESIDENTIAL_SUFFIXES {
        if lower.ends_with(suffix) {
            return HostClass::Residential;
        }
    }
    let has_keyword = lower
        .split(['.', '-'])
        .any(|label| ACCESS_KEYWORDS.contains(&label));
    if has_keyword && numeric_groups(&lower) >= 2 {
        return HostClass::Residential;
    }
    HostClass::Unknown
}

/// Counts maximal runs of ASCII digits in `s`.
fn numeric_groups(s: &str) -> usize {
    let mut count = 0;
    let mut in_group = false;
    for c in s.chars() {
        if c.is_ascii_digit() {
            if !in_group {
                count += 1;
                in_group = true;
            }
        } else {
            in_group = false;
        }
    }
    count
}

// The synthetic rDNS mix, tuned so the *classified* population lands
// near the paper's §5.3 numbers: 61% of named hosts residential, ~13% at
// named hosting companies, and 1150/6634 ≈ 17% with no rDNS at all.

/// Fraction of hosts that are residential.
const RESIDENTIAL_FRAC: f64 = 0.61;
/// Fraction of hosts that are datacenter (the rest have no rDNS or an
/// opaque name).
const DATACENTER_FRAC: f64 = 0.13;
/// Fraction of hosts with no rDNS name at all (applied first; the paper
/// found 1150 of 6634 relay addresses had none).
const NO_RDNS_FRAC: f64 = 0.17;

/// Generates a synthetic rDNS name (or `None` for hosts without rDNS)
/// for a host with IPv4 address `ip`, from the residential / datacenter
/// / unnamed mix above, for populating simulated relay descriptors.
pub fn generate_hostname<R: Rng + ?Sized>(ip: [u8; 4], rng: &mut R) -> Option<String> {
    if rng.gen_bool(NO_RDNS_FRAC) {
        return None;
    }
    // Renormalize the named mix.
    let named = 1.0 - NO_RDNS_FRAC;
    let r: f64 = rng.gen_range(0.0..1.0);
    if r < RESIDENTIAL_FRAC / named * (1.0 - NO_RDNS_FRAC) {
        Some(residential_name(ip, rng))
    } else if r < (RESIDENTIAL_FRAC + DATACENTER_FRAC) / named * (1.0 - NO_RDNS_FRAC) {
        Some(datacenter_name(ip, rng))
    } else {
        Some(opaque_name(ip, rng))
    }
}

fn residential_name<R: Rng + ?Sized>(ip: [u8; 4], rng: &mut R) -> String {
    let [a, b, c, d] = ip;
    match rng.gen_range(0..5) {
        0 => format!("pool-{a}-{b}-{c}-{d}.nycmny.verizon.net"),
        1 => format!("c-{a}-{b}-{c}-{d}.hsd1.ma.comcast.net"),
        2 => format!("p{a}{b}{c}{d}.dip0.t-ipconnect.de"),
        3 => format!("{d}.{c}.{b}.{a}.dsl.dyn.orange.fr"),
        _ => format!("cpc{a}-{b}{c}-{d}.cable.virginmedia.com"),
    }
}

fn datacenter_name<R: Rng + ?Sized>(ip: [u8; 4], rng: &mut R) -> String {
    let [a, b, c, d] = ip;
    match rng.gen_range(0..5) {
        0 => format!("li{b}{c}-{d}.members.linode.com"),
        1 => format!("ec2-{a}-{b}-{c}-{d}.compute-1.amazonaws.com"),
        2 => format!("ns{a}{b}{c}{d}.ip-{a}-{b}-{c}.ovh.net"),
        3 => format!("static.{a}.{b}.{c}.{d}.clients.your-server.de"),
        _ => format!("host-{a}-{b}-{c}-{d}.leaseweb.com"),
    }
}

fn opaque_name<R: Rng + ?Sized>(ip: [u8; 4], rng: &mut R) -> String {
    let [_, _, c, d] = ip;
    match rng.gen_range(0..3) {
        0 => format!("tor-relay-{c}{d}.example.org"),
        1 => format!("mail{d}.smallbusiness.example.com"),
        _ => format!("gw.office{c}.example.net"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    #[test]
    fn hosting_suffixes_are_datacenter() {
        assert_eq!(
            classify_hostname("li1234-56.members.linode.com"),
            HostClass::Datacenter
        );
        assert_eq!(
            classify_hostname("ec2-1-2-3-4.compute-1.amazonaws.com"),
            HostClass::Datacenter
        );
        assert_eq!(
            classify_hostname("static.1.2.3.4.clients.your-server.de"),
            HostClass::Datacenter
        );
    }

    #[test]
    fn isp_suffixes_are_residential() {
        assert_eq!(
            classify_hostname("pool-96-255-198-1.washdc.fios.verizon.net"),
            HostClass::Residential
        );
        assert_eq!(
            classify_hostname("p5089abcd.dip0.t-ipconnect.de"),
            HostClass::Residential
        );
    }

    #[test]
    fn keyword_plus_numbers_is_residential() {
        assert_eq!(
            classify_hostname("71-84-32-15.dhcp.mdfd.or.someisp.example"),
            HostClass::Residential
        );
        assert_eq!(
            classify_hostname("dsl-189-32.uk.someother.example"),
            HostClass::Residential
        );
    }

    #[test]
    fn keyword_without_numbers_is_unknown() {
        assert_eq!(classify_hostname("dsl.example.com"), HostClass::Unknown);
    }

    #[test]
    fn plain_names_are_unknown() {
        assert_eq!(classify_hostname("www.example.com"), HostClass::Unknown);
        assert_eq!(
            classify_hostname("tor-relay-12.example.org"),
            HostClass::Unknown
        );
    }

    #[test]
    fn classification_is_case_insensitive() {
        assert_eq!(
            classify_hostname("POOL-1-2-3-4.VERIZON.NET"),
            HostClass::Residential
        );
    }

    #[test]
    fn numeric_group_counting() {
        assert_eq!(numeric_groups("pool-96-255-198-1"), 4);
        assert_eq!(numeric_groups("abc"), 0);
        assert_eq!(numeric_groups("a1b22c333"), 3);
    }

    #[test]
    fn generator_hits_target_mix() {
        let mut rng = SmallRng::seed_from_u64(11);
        let n = 20_000;
        let mut residential = 0;
        let mut datacenter = 0;
        let mut none = 0;
        let mut named = 0;
        for i in 0..n {
            let ip = [
                (i % 223 + 1) as u8,
                (i / 7 % 256) as u8,
                (i / 13 % 256) as u8,
                (i % 254 + 1) as u8,
            ];
            match generate_hostname(ip, &mut rng) {
                None => none += 1,
                Some(name) => {
                    named += 1;
                    match classify_hostname(&name) {
                        HostClass::Residential => residential += 1,
                        HostClass::Datacenter => datacenter += 1,
                        HostClass::Unknown => {}
                    }
                }
            }
        }
        let none_frac = none as f64 / n as f64;
        assert!((none_frac - 0.17).abs() < 0.02, "no-rdns {none_frac}");
        // §5.3: "of the currently running Tor relays with a reverse DNS
        // name, at least … roughly 61% are residential".
        let res_frac = residential as f64 / named as f64;
        assert!((res_frac - 0.61).abs() < 0.05, "residential {res_frac}");
        let dc_frac = datacenter as f64 / named as f64;
        assert!(dc_frac > 0.08 && dc_frac < 0.20, "datacenter {dc_frac}");
    }

    #[test]
    fn generated_names_classify_as_intended() {
        // Every name from the residential generator classifies
        // residential; same for datacenter.
        let mut rng = SmallRng::seed_from_u64(5);
        for _ in 0..200 {
            let ip = [
                rng.gen_range(1..=223),
                rng.gen(),
                rng.gen(),
                rng.gen_range(1..=254),
            ];
            let r = residential_name(ip, &mut rng);
            assert_eq!(classify_hostname(&r), HostClass::Residential, "{r}");
            let d = datacenter_name(ip, &mut rng);
            assert_eq!(classify_hostname(&d), HostClass::Datacenter, "{d}");
        }
    }
}
