//! RIR record types.
//!
//! WHOIS describes allocations with two linked objects (§4.1 of the paper):
//! an **organization** record and an **aut-num** record referencing it.
//! The one-to-many `org → aut-num` relation is the WHOIS organization key
//! (`OID_W`).

use borges_types::{Asn, CountryCode, OrgName, WhoisOrgId};
use serde::{Deserialize, Serialize};
use std::fmt;
use std::str::FromStr;

/// The five Regional Internet Registries (plus a catch-all for NIR-sourced
/// records appearing in CAIDA dumps, e.g. JPNIC/TWNIC).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub enum Rir {
    /// American Registry for Internet Numbers.
    Arin,
    /// Réseaux IP Européens Network Coordination Centre.
    RipeNcc,
    /// Asia-Pacific Network Information Centre.
    Apnic,
    /// Latin America and Caribbean Network Information Centre.
    Lacnic,
    /// African Network Information Centre.
    Afrinic,
    /// A National Internet Registry (JPNIC, TWNIC, KRNIC, …) as it appears
    /// in CAIDA's `source` column.
    Nir,
}

impl Rir {
    /// The name used in CAIDA AS2Org `source` columns.
    pub const fn as_str(self) -> &'static str {
        match self {
            Rir::Arin => "ARIN",
            Rir::RipeNcc => "RIPE",
            Rir::Apnic => "APNIC",
            Rir::Lacnic => "LACNIC",
            Rir::Afrinic => "AFRINIC",
            Rir::Nir => "NIR",
        }
    }

    /// All RIR values (handy for generators and exhaustive tests).
    pub const ALL: [Rir; 6] = [
        Rir::Arin,
        Rir::RipeNcc,
        Rir::Apnic,
        Rir::Lacnic,
        Rir::Afrinic,
        Rir::Nir,
    ];
}

impl fmt::Display for Rir {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

impl FromStr for Rir {
    type Err = borges_types::ParseError;

    /// Case-insensitive, surrounding whitespace ignored.
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        const NAMES: [(&str, Rir); 14] = [
            ("ARIN", Rir::Arin),
            ("RIPE", Rir::RipeNcc),
            ("RIPENCC", Rir::RipeNcc),
            ("RIPE-NCC", Rir::RipeNcc),
            ("APNIC", Rir::Apnic),
            ("LACNIC", Rir::Lacnic),
            ("AFRINIC", Rir::Afrinic),
            ("NIR", Rir::Nir),
            ("JPNIC", Rir::Nir),
            ("TWNIC", Rir::Nir),
            ("KRNIC", Rir::Nir),
            ("CNNIC", Rir::Nir),
            ("IDNIC", Rir::Nir),
            ("VNNIC", Rir::Nir),
        ];
        let t = s.trim();
        NAMES
            .iter()
            .find(|(name, _)| name.eq_ignore_ascii_case(t))
            .map(|&(_, rir)| rir)
            .ok_or_else(|| borges_types::ParseError::new("rir", s, "unknown registry source"))
    }
}

/// A WHOIS organization record.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct WhoisOrg {
    /// The registry handle — the `OID_W` organization key.
    pub id: WhoisOrgId,
    /// Registered organization name.
    pub name: OrgName,
    /// Country of registration.
    pub country: CountryCode,
    /// Which registry published the record.
    pub source: Rir,
    /// Last-modified date as `YYYYMMDD` (0 when unknown) — CAIDA's
    /// `changed` column.
    pub changed: u32,
}

/// A WHOIS aut-num record: one allocated ASN and its organization link.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct AutNum {
    /// The allocated ASN.
    pub asn: Asn,
    /// The `aut_name` (short network handle, e.g. `LEVEL3`).
    pub name: String,
    /// The owning organization — the `OID_W` foreign key.
    pub org: WhoisOrgId,
    /// Which registry published the record.
    pub source: Rir,
    /// Last-modified date as `YYYYMMDD` (0 when unknown).
    pub changed: u32,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rir_parse_roundtrip() {
        for rir in Rir::ALL {
            assert_eq!(rir.as_str().parse::<Rir>().unwrap(), rir);
        }
    }

    #[test]
    fn rir_parse_accepts_nir_aliases() {
        assert_eq!("JPNIC".parse::<Rir>().unwrap(), Rir::Nir);
        assert_eq!("ripencc".parse::<Rir>().unwrap(), Rir::RipeNcc);
    }

    #[test]
    fn rir_parse_rejects_unknown() {
        assert!("IANA".parse::<Rir>().is_err());
    }

    #[test]
    fn records_serialize() {
        let org = WhoisOrg {
            id: WhoisOrgId::new("LPL-141-ARIN"),
            name: OrgName::new("Level 3 Parent, LLC"),
            country: "US".parse().unwrap(),
            source: Rir::Arin,
            changed: 20240101,
        };
        let j = serde_json::to_string(&org).unwrap();
        let back: WhoisOrg = serde_json::from_str(&j).unwrap();
        assert_eq!(back, org);
    }
}
