//! CAIDA's "serial-1" AS-relationship file format.
//!
//! CAIDA publishes inferred AS relationships as pipe-separated triples:
//!
//! ```text
//! # source: borges-topology
//! 3356|209|-1
//! 3356|2914|0
//! ```
//!
//! `a|b|-1` means *a is a provider of b*; `a|b|0` means *a and b peer*.
//! Comment lines start with `#`. This module reads and writes that format
//! so a genuine CAIDA `as-rel.txt` can stand in for the generated
//! topology.

use crate::graph::{AsGraph, AsGraphBuilder};
use borges_types::Asn;
use std::error::Error;
use std::fmt;

/// A serial-1 parsing failure.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Serial1Error {
    /// 1-based line number.
    pub line: usize,
    /// What went wrong.
    pub reason: &'static str,
}

impl fmt::Display for Serial1Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "line {}: {}", self.line, self.reason)
    }
}

impl Error for Serial1Error {}

/// Parses a serial-1 relationship file.
pub fn parse(text: &str) -> Result<AsGraph, Serial1Error> {
    parse_lines(text, false)
}

/// The one pass behind [`parse`] and [`parse_with_nodes`]: the first bad
/// line in file order is the error.
fn parse_lines(text: &str, with_nodes: bool) -> Result<AsGraph, Serial1Error> {
    let mut builder = AsGraphBuilder::new();
    for (idx, raw) in text.lines().enumerate() {
        let line_no = idx + 1;
        let line = raw.trim();
        if let Some(node) = line.strip_prefix("# node: ").filter(|_| with_nodes) {
            let asn: Asn = node.parse().map_err(|_| Serial1Error {
                line: line_no,
                reason: "invalid node comment",
            })?;
            builder.node(asn);
            continue;
        }
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let mut fields = line.split('|');
        let (a, b, rel) = match (fields.next(), fields.next(), fields.next(), fields.next()) {
            (Some(a), Some(b), Some(rel), None) => (a, b, rel),
            _ => {
                return Err(Serial1Error {
                    line: line_no,
                    reason: "expected as1|as2|rel",
                })
            }
        };
        let a: Asn = a.parse().map_err(|_| Serial1Error {
            line: line_no,
            reason: "invalid as1",
        })?;
        let b: Asn = b.parse().map_err(|_| Serial1Error {
            line: line_no,
            reason: "invalid as2",
        })?;
        match rel {
            "-1" => {
                builder.provider_customer(a, b);
            }
            "0" => {
                builder.peer_peer(a, b);
            }
            _ => {
                return Err(Serial1Error {
                    line: line_no,
                    reason: "relationship must be -1 or 0",
                })
            }
        }
    }
    Ok(builder.build())
}

/// Serializes a graph to the serial-1 format, deterministically ordered.
pub fn serialize(graph: &AsGraph) -> String {
    let mut out = String::from("# format: as1|as2|rel (-1 = as1 provider of as2, 0 = peers)\n");
    for provider in graph.nodes() {
        for &customer in graph.customers_of(provider) {
            out.push_str(&format!("{}|{}|-1\n", provider.value(), customer.value()));
        }
    }
    for a in graph.nodes() {
        for &b in graph.peers_of(a) {
            if a < b {
                out.push_str(&format!("{}|{}|0\n", a.value(), b.value()));
            }
        }
    }
    // Isolated nodes still appear (as comments) so node sets round-trip.
    for node in graph.nodes() {
        if graph.degree(node) == 0 {
            out.push_str(&format!("# node: {}\n", node.value()));
        }
    }
    out
}

/// Parses including `# node:` comments (the round-trip companion of
/// [`serialize`] — plain CAIDA files simply have no such comments).
pub fn parse_with_nodes(text: &str) -> Result<AsGraph, Serial1Error> {
    parse_lines(text, true)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn a(n: u32) -> Asn {
        Asn::new(n)
    }

    #[test]
    fn parses_caida_style_lines() {
        let g = parse("# inferred\n3356|209|-1\n3356|2914|0\n").unwrap();
        assert_eq!(g.customers_of(a(3356)), &[a(209)]);
        assert_eq!(g.peers_of(a(3356)), &[a(2914)]);
    }

    #[test]
    fn rejects_malformed_lines() {
        assert_eq!(parse("1|2\n").unwrap_err().line, 1);
        assert_eq!(
            parse("1|2|7\n").unwrap_err().reason,
            "relationship must be -1 or 0"
        );
        assert!(parse("x|2|-1\n").is_err());
        assert!(parse("1|2|-1|extra\n").is_err());
    }

    #[test]
    fn the_first_bad_line_in_file_order_is_the_error() {
        // A bad edge line before a bad `# node:` line: the edge line is
        // reported, whichever kind of line fails.
        let text = "1|2|-1\nx|2|-1\n# node: banana\n";
        assert_eq!(
            parse_with_nodes(text).unwrap_err(),
            Serial1Error {
                line: 2,
                reason: "invalid as1"
            }
        );
        let text = "1|2|-1\n# node: banana\nx|2|-1\n";
        assert_eq!(
            parse_with_nodes(text).unwrap_err(),
            Serial1Error {
                line: 2,
                reason: "invalid node comment"
            }
        );
        // Plain `parse` treats `# node:` lines as comments.
        assert_eq!(parse(text).unwrap_err().line, 3);
    }

    #[test]
    fn roundtrip_with_isolated_nodes() {
        let mut b = AsGraph::builder();
        b.provider_customer(a(1), a(2));
        b.peer_peer(a(2), a(3));
        b.node(a(99));
        let g = b.build();
        let text = serialize(&g);
        let back = parse_with_nodes(&text).unwrap();
        assert_eq!(back.node_count(), g.node_count());
        assert_eq!(back.p2c_count(), g.p2c_count());
        assert_eq!(back.p2p_count(), g.p2p_count());
        assert_eq!(serialize(&back), text, "stable serialization");
    }

    #[test]
    fn cones_survive_roundtrip() {
        use crate::cone::customer_cones;
        let mut b = AsGraph::builder();
        b.provider_customer(a(1), a(2));
        b.provider_customer(a(1), a(3));
        b.provider_customer(a(3), a(4));
        let g = b.build();
        let back = parse_with_nodes(&serialize(&g)).unwrap();
        assert_eq!(customer_cones(&g), customer_cones(&back));
    }
}
