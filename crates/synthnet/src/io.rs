//! Dataset persistence: a generated world as a directory of files.
//!
//! [`save`] writes every view in its native interchange format so the
//! bundle is consumable by external tooling (and by the `borges` CLI).
//! A loader reads only what its caller uses:
//!
//! | file | format | read by |
//! |---|---|---|
//! | `as2org.txt` | CAIDA AS2Org flat file | [`DatasetBundle::load`] |
//! | `peeringdb.json` | PeeringDB dump-shaped JSON | [`DatasetBundle::load`] |
//! | `web.json` | web snapshot (hosts + behaviours) | [`DatasetBundle::load`] |
//! | `asrank.txt` | one ASN per line, rank order | [`DatasetBundle::load`] |
//! | `truth.psv` | `asn\|org_id\|org_name` (the oracle; optional) | [`BundleTruth::load`] |
//! | `as-rel.txt` | CAIDA serial-1 AS-relationship file | external tools only |
//! | `populations.psv` | `asn\|users\|country` | external tools only |
//! | `hypergiants.psv` | `name\|asn` | external tools only |
//! | `labels.psv` | `asn\|sib1 sib2 …` (IE ground truth) | external tools only |
//! | `config.json` | the generator configuration | external tools only |
//!
//! Only the first four are required, so bundles built from *real*
//! snapshots (CAIDA + PeeringDB dumps + an archived crawl) load the same
//! way — just without truth-based scoring.

use crate::SyntheticInternet;
use borges_peeringdb::PdbSnapshot;
use borges_topology::serial1;
use borges_types::Asn;
use borges_websim::{snapshot as websnap, SimWeb};
use borges_whois::{as2org_format, WhoisRegistry};
use std::collections::BTreeMap;
use std::error::Error;
use std::fmt;
use std::path::Path;

/// A persistence failure.
#[derive(Debug)]
pub enum IoError {
    /// Filesystem error, with the file involved.
    Fs(String, std::io::Error),
    /// A file exists but does not parse.
    Format(String, Box<dyn Error + Send + Sync>),
}

impl fmt::Display for IoError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            IoError::Fs(file, e) => write!(f, "{file}: {e}"),
            IoError::Format(file, e) => write!(f, "{file}: {e}"),
        }
    }
}

impl Error for IoError {}

fn write(dir: &Path, name: &str, contents: &str) -> Result<(), IoError> {
    std::fs::write(dir.join(name), contents).map_err(|e| IoError::Fs(name.to_string(), e))
}

/// Reads a text file; bytes that are not UTF-8 are a malformed file, not
/// a filesystem fault.
fn read(dir: &Path, name: &str) -> Result<String, IoError> {
    let bytes = std::fs::read(dir.join(name)).map_err(|e| IoError::Fs(name.to_string(), e))?;
    String::from_utf8(bytes).map_err(|e| IoError::Format(name.to_string(), Box::new(e)))
}

/// Reads and parses `name`, typing a parse failure as [`IoError::Format`].
fn parse<T, E: Error + Send + Sync + 'static>(
    dir: &Path,
    name: &str,
    parser: impl FnOnce(&str) -> Result<T, E>,
) -> Result<T, IoError> {
    parser(&read(dir, name)?).map_err(|e| IoError::Format(name.to_string(), Box::new(e)))
}

/// Saves a world into `dir` (created if missing).
pub fn save(world: &SyntheticInternet, dir: &Path) -> Result<(), IoError> {
    std::fs::create_dir_all(dir).map_err(|e| IoError::Fs(dir.display().to_string(), e))?;

    write(dir, "as2org.txt", &as2org_format::serialize(&world.whois))?;
    write(dir, "peeringdb.json", &world.pdb.to_json())?;
    write(dir, "web.json", &websnap::to_json(&world.web))?;
    write(dir, "as-rel.txt", &serial1::serialize(&world.topology))?;

    let mut populations = String::from("# asn|users|country\n");
    for (asn, rec) in &world.populations {
        populations.push_str(&format!("{}|{}|{}\n", asn.value(), rec.users, rec.country));
    }
    write(dir, "populations.psv", &populations)?;

    let mut asrank = String::new();
    for asn in &world.asrank {
        asrank.push_str(&format!("{}\n", asn.value()));
    }
    write(dir, "asrank.txt", &asrank)?;

    let mut hypergiants = String::from("# name|asn\n");
    for (name, asn) in &world.hypergiants {
        hypergiants.push_str(&format!("{}|{}\n", name, asn.value()));
    }
    write(dir, "hypergiants.psv", &hypergiants)?;

    let mut truth = String::from("# asn|org_id|org_name\n");
    for (asn, org_id) in world.truth.assignments() {
        truth.push_str(&format!(
            "{}|{}|{}\n",
            asn.value(),
            org_id.0,
            world.truth.org(org_id).display_name
        ));
    }
    write(dir, "truth.psv", &truth)?;

    let mut labels = String::from("# asn|siblings\n");
    for (asn, siblings) in &world.text_labels {
        let list: Vec<String> = siblings.iter().map(|a| a.value().to_string()).collect();
        labels.push_str(&format!("{}|{}\n", asn.value(), list.join(" ")));
    }
    write(dir, "labels.psv", &labels)?;

    let config =
        serde_json::to_string_pretty(&world.config).expect("config serialization cannot fail");
    write(dir, "config.json", &config)
}

/// A loaded dataset bundle: the pipeline's inputs.
#[derive(Debug, Clone)]
pub struct DatasetBundle {
    /// WHOIS registry.
    pub whois: WhoisRegistry,
    /// PeeringDB snapshot.
    pub pdb: PdbSnapshot,
    /// Web snapshot.
    pub web: SimWeb,
    /// AS-Rank ordering.
    pub asrank: Vec<Asn>,
}

impl DatasetBundle {
    /// Loads a bundle's inputs from `dir`. The three sources parse on
    /// threads of their own; the other files are not read (see the module
    /// table).
    ///
    /// When several files are broken, the error names the first of them
    /// in the order `as2org.txt`, `peeringdb.json`, `web.json`,
    /// `asrank.txt`, however the parses are scheduled.
    pub fn load(dir: &Path) -> Result<Self, IoError> {
        let (whois, pdb, web, asrank) = std::thread::scope(|scope| {
            let whois = scope.spawn(|| parse(dir, "as2org.txt", as2org_format::parse));
            let pdb = scope.spawn(|| parse(dir, "peeringdb.json", PdbSnapshot::from_json));
            let web = scope.spawn(|| parse(dir, "web.json", websnap::from_json));
            let asrank = parse(dir, "asrank.txt", parse_asrank);
            (join(whois), join(pdb), join(web), asrank)
        });
        Ok(DatasetBundle {
            whois: whois?,
            pdb: pdb?,
            web: web?,
            asrank: asrank?,
        })
    }
}

/// A parser thread's result; a panic carries on in the caller.
fn join<T>(handle: std::thread::ScopedJoinHandle<'_, T>) -> T {
    handle
        .join()
        .unwrap_or_else(|panic| std::panic::resume_unwind(panic))
}

/// `asrank.txt`: one ASN per line; `#` comments and blank lines skipped.
fn parse_asrank(text: &str) -> Result<Vec<Asn>, borges_types::ParseError> {
    text.lines()
        .map(str::trim)
        .filter(|line| !line.is_empty() && !line.starts_with('#'))
        .map(str::parse)
        .collect()
}

/// A bundle's oracle, `truth.psv`: the true organization of every ASN.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BundleTruth {
    /// ASN → (truth org id, org name).
    pub orgs: BTreeMap<Asn, (usize, String)>,
}

impl BundleTruth {
    /// Loads `dir/truth.psv`; `None` when the bundle has no oracle.
    pub fn load(dir: &Path) -> Result<Option<BundleTruth>, IoError> {
        const FILE: &str = "truth.psv";
        let text = match read(dir, FILE) {
            Ok(text) => text,
            Err(IoError::Fs(_, e)) if e.kind() == std::io::ErrorKind::NotFound => return Ok(None),
            Err(e) => return Err(e),
        };
        let mut orgs = BTreeMap::new();
        for line in text.lines() {
            let line = line.trim_end_matches('\r');
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            let mut fields = line.splitn(3, '|');
            let (Some(asn), Some(org_id), Some(name)) =
                (fields.next(), fields.next(), fields.next())
            else {
                return Err(bad(FILE, "wrong field count"));
            };
            let asn: Asn = asn.parse().map_err(|_| bad(FILE, "invalid asn"))?;
            let org_id: usize = org_id.parse().map_err(|_| bad(FILE, "invalid org id"))?;
            orgs.insert(asn, (org_id, name.to_string()));
        }
        Ok(Some(BundleTruth { orgs }))
    }

    /// Are two ASNs siblings according to the oracle? An ASN it does not
    /// list has none.
    pub fn are_siblings(&self, a: Asn, b: Asn) -> bool {
        match (self.orgs.get(&a), self.orgs.get(&b)) {
            (Some((x, _)), Some((y, _))) => x == y,
            _ => false,
        }
    }
}

fn bad(file: &str, reason: &'static str) -> IoError {
    IoError::Format(
        file.to_string(),
        Box::new(borges_types::ParseError::new("field", "", reason)),
    )
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::GeneratorConfig;

    /// The files [`DatasetBundle::load`] reads, in the order its errors
    /// follow.
    const INPUTS: [&str; 4] = ["as2org.txt", "peeringdb.json", "web.json", "asrank.txt"];
    /// The files no loader of the pipeline reads.
    const SIDECARS: [&str; 6] = [
        "as-rel.txt",
        "populations.psv",
        "hypergiants.psv",
        "truth.psv",
        "labels.psv",
        "config.json",
    ];

    fn tmpdir(name: &str) -> std::path::PathBuf {
        let dir =
            std::env::temp_dir().join(format!("borges-io-test-{name}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn saved_tiny(name: &str) -> (SyntheticInternet, std::path::PathBuf) {
        let world = SyntheticInternet::generate(&GeneratorConfig::tiny(12));
        let dir = tmpdir(name);
        save(&world, &dir).unwrap();
        (world, dir)
    }

    /// The data rows of a `|`-separated file that only external tools read.
    pub(crate) fn sidecar_rows(dir: &Path, name: &str) -> Vec<Vec<String>> {
        read(dir, name)
            .unwrap()
            .lines()
            .filter(|line| !line.is_empty() && !line.starts_with('#'))
            .map(|line| line.split('|').map(str::to_string).collect())
            .collect()
    }

    /// `config.json`, which only external tools read.
    pub(crate) fn sidecar_config(dir: &Path) -> GeneratorConfig {
        serde_json::from_str(&read(dir, "config.json").unwrap()).unwrap()
    }

    /// `as-rel.txt`, which only external tools read.
    pub(crate) fn sidecar_topology(dir: &Path) -> borges_topology::AsGraph {
        serial1::parse_with_nodes(&read(dir, "as-rel.txt").unwrap()).unwrap()
    }

    fn load_error(dir: &Path) -> IoError {
        DatasetBundle::load(dir).expect_err("the bundle is broken")
    }

    #[test]
    fn save_load_roundtrip() {
        let (world, dir) = saved_tiny("roundtrip");
        let bundle = DatasetBundle::load(&dir).unwrap();

        assert_eq!(bundle.whois.asn_count(), world.whois.asn_count());
        assert_eq!(bundle.pdb.net_count(), world.pdb.net_count());
        assert_eq!(bundle.web.host_count(), world.web.host_count());
        assert_eq!(bundle.asrank, world.asrank);

        // The files only external tools read carry the world too.
        let topology = sidecar_topology(&dir);
        assert_eq!(topology.node_count(), world.topology.node_count());
        assert_eq!(topology.p2c_count(), world.topology.p2c_count());
        assert_eq!(topology.p2p_count(), world.topology.p2p_count());
        assert_eq!(
            sidecar_rows(&dir, "populations.psv").len(),
            world.populations.len()
        );
        assert_eq!(sidecar_rows(&dir, "hypergiants.psv").len(), 16);
        assert_eq!(sidecar_config(&dir), world.config);
        let labels: BTreeMap<Asn, Vec<Asn>> = sidecar_rows(&dir, "labels.psv")
            .iter()
            .map(|row| {
                let siblings = row[1].split_whitespace().map(|a| a.parse().unwrap());
                (row[0].parse().unwrap(), siblings.collect())
            })
            .collect();
        assert_eq!(labels, world.text_labels);

        // The oracle survives.
        let truth = BundleTruth::load(&dir).unwrap().unwrap();
        assert_eq!(truth.orgs.len(), world.truth.asn_count());
        assert!(truth.are_siblings(Asn::new(3356), Asn::new(209)));
        assert!(!truth.are_siblings(Asn::new(3356), Asn::new(174)));

        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn oracle_files_are_optional() {
        // Every file outside the four inputs may be missing, the oracle
        // included.
        let (world, dir) = saved_tiny("no-oracle");
        for name in SIDECARS {
            std::fs::remove_file(dir.join(name)).unwrap();
        }
        let bundle = DatasetBundle::load(&dir).unwrap();
        assert_eq!(bundle.whois.asn_count(), world.whois.asn_count());
        assert_eq!(bundle.asrank, world.asrank);
        assert!(BundleTruth::load(&dir).unwrap().is_none());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn missing_required_file_is_an_error() {
        let (_, dir) = saved_tiny("missing");
        for name in INPUTS {
            let original = std::fs::read(dir.join(name)).unwrap();
            std::fs::remove_file(dir.join(name)).unwrap();
            assert!(
                matches!(load_error(&dir), IoError::Fs(file, _) if file == name),
                "{name}"
            );
            std::fs::write(dir.join(name), original).unwrap();
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn corrupt_file_is_a_format_error() {
        let (_, dir) = saved_tiny("corrupt");
        for name in INPUTS {
            let original = std::fs::read(dir.join(name)).unwrap();
            let not_utf8 = [&[0xff], &original[..]].concat();
            // Cut inside a two-byte character.
            let cut_mid_character = [&original[..], &"é".as_bytes()[..1]].concat();
            for (what, bytes) in [
                ("garbled", b"garbled|{\n".to_vec()),
                // Deeper than a parser thread's stack could recurse.
                ("nested", "[".repeat(1 << 20).into_bytes()),
                ("not UTF-8", not_utf8),
                ("truncated mid-character", cut_mid_character),
            ] {
                std::fs::write(dir.join(name), bytes).unwrap();
                assert!(
                    matches!(load_error(&dir), IoError::Format(file, _) if file == name),
                    "{name} {what}"
                );
            }
            std::fs::write(dir.join(name), original).unwrap();
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn two_broken_files_name_the_first_in_file_order() {
        let (_, dir) = saved_tiny("two-broken");
        let originals: Vec<Vec<u8>> = INPUTS
            .iter()
            .map(|name| std::fs::read(dir.join(name)).unwrap())
            .collect();
        for (first, original) in INPUTS.iter().zip(&originals) {
            for second in INPUTS.iter().skip_while(|name| *name != first).skip(1) {
                // The earlier file breaks on its last line, the later one on
                // its first byte, so the later parse fails first.
                let late = [&original[..], b"\ngarbled|{\n"].concat();
                std::fs::write(dir.join(first), late).unwrap();
                std::fs::write(dir.join(second), b"{").unwrap();
                for _ in 0..50 {
                    assert!(
                        matches!(load_error(&dir), IoError::Format(file, _) if file == *first),
                        "{first} and {second}"
                    );
                }
                for (name, original) in INPUTS.iter().zip(&originals) {
                    std::fs::write(dir.join(name), original).unwrap();
                }
            }
        }
        let _ = std::fs::remove_dir_all(&dir);
    }
}
