//! Streaming world generation: Internet-scale datasets in bounded memory.
//!
//! [`SyntheticInternet::generate`](crate::SyntheticInternet::generate)
//! materializes every [`TruthOrg`] — and every WHOIS/PeeringDB/web record
//! derived from it — before writing anything, which caps world size at
//! whatever fits in RAM several times over. [`generate_to_dir`] instead
//! drives the *same* truth pass and the *same* emission pass
//! (`Emission`) into files, one organization at a time, dropping each
//! organization once its records are written. It writes the same world:
//! the bundle loads to the materialized world's registry, snapshot, web
//! and AS-Rank, and its oracle, population, topology and config files
//! are byte-identical to what [`crate::io::save`] writes. Only the two
//! record files' layout differs: the stream writes records compact and in
//! emission order, `save` sorted and pretty.
//!
//! What stays in memory is bounded and small per ASN:
//!
//! * the ASN allocator's used-set and the web host dedup set,
//! * deferred web redirect/dead plans (a few strings per *redirecting*
//!   unit, not per unit),
//! * per-org topology summaries (`OrgKind` + the unit ASNs) for the
//!   relationship-graph pass, and the graph itself,
//! * compact truth/population rows (asn + org id + users) sorted once at
//!   the end,
//! * the org display-name table for `truth.psv`.
//!
//! No full-world `Vec<TruthOrg>`, registry, snapshot or web is ever
//! built. Two-section files (`as2org.txt`, `peeringdb.json`) are written
//! as main-file + temporary second section, stitched at the end.

use crate::config::GeneratorConfig;
use crate::generate::{
    compute_asrank, gen_conglomerates, gen_gov_mega, gen_singletons, gen_small_multi, gen_transit,
    scale_users, singleton_scale, AsnAllocator, Emission, OrgSink, RecordSink,
};
use crate::io::IoError;
use crate::naming::COUNTRIES;
use crate::orgmodel::{OrgKind, TruthOrg};
use crate::scripted;
use borges_peeringdb::{PdbNetwork, PdbOrganization};
use borges_topology::serial1;
use borges_websim::{SiteNode, SnapshotWriter};
use borges_whois::as2org_format::{AUT_HEADER, ORG_HEADER};
use borges_whois::{AutNum, WhoisOrg};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::fs::File;
use std::io::{BufWriter, Write};
use std::path::{Path, PathBuf};

/// Counts from a completed streaming generation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StreamReport {
    /// Organizations generated (scripted + configured categories).
    pub orgs: usize,
    /// ASNs generated (each belongs to exactly one organization).
    pub asns: usize,
    /// WHOIS organization records emitted.
    pub whois_orgs: usize,
    /// PeeringDB organization records emitted.
    pub pdb_orgs: usize,
    /// PeeringDB network records emitted.
    pub pdb_nets: usize,
    /// Hosts in the web snapshot.
    pub web_hosts: usize,
    /// Users across the population table (after singleton scaling).
    pub total_users: u64,
}

/// Generates the world described by `config` directly into `dir` (created
/// if missing), one organization at a time. Returns the record counts.
///
/// Deterministic in `config`, and the same world as
/// [`SyntheticInternet::generate`](crate::SyntheticInternet::generate)
/// (see the module docs).
pub fn generate_to_dir(config: &GeneratorConfig, dir: &Path) -> Result<StreamReport, IoError> {
    std::fs::create_dir_all(dir).map_err(|e| IoError::Fs(dir.display().to_string(), e))?;

    let mut rng = StdRng::seed_from_u64(config.seed);
    let mut next_id = 0usize;
    let scripted_orgs = scripted::scripted_orgs(&mut next_id);
    let mut alloc = AsnAllocator::new(
        scripted_orgs
            .iter()
            .flat_map(|o| o.units.iter().map(|u| u.asn)),
    );

    let mut sink = StreamSink::new(config, dir)?;
    for org in scripted_orgs {
        sink.accept(org);
    }
    gen_gov_mega(config, &mut rng, &mut alloc, &mut next_id, &mut sink);
    gen_conglomerates(config, &mut rng, &mut alloc, &mut next_id, &mut sink);
    gen_transit(config, &mut rng, &mut alloc, &mut next_id, &mut sink);
    gen_small_multi(config, &mut rng, &mut alloc, &mut next_id, &mut sink);
    gen_singletons(config, &mut rng, &mut alloc, &mut next_id, &mut sink);

    sink.seal(config)
}

/// One compact population row: everything needed to write
/// `populations.psv` after the singleton scaling pass.
struct PopRow {
    asn: u32,
    users: u64,
    country: u16,
    singleton: bool,
}

/// The record files: the on-disk [`RecordSink`]. A write failure is kept
/// and every later record dropped; [`StreamSink::seal`] returns it.
struct Files {
    // WHOIS: org section in the main file, aut section in a tmp file,
    // stitched at seal (the CAIDA format is two-sectioned).
    as2org: BufWriter<File>,
    as2org_aut: BufWriter<File>,
    whois_orgs: usize,

    // PeeringDB: same two-section treatment for the org/net tables.
    pdb_orgs_w: BufWriter<File>,
    pdb_nets_w: BufWriter<File>,
    pdb_orgs: usize,
    pdb_nets: usize,

    web: SnapshotWriter<BufWriter<File>>,
    error: Option<IoError>,
}

impl Files {
    /// Keeps the first failure, naming `file`.
    fn keep(&mut self, file: &str, result: std::io::Result<()>) {
        if let (None, Err(e)) = (&self.error, result) {
            self.error = Some(IoError::Fs(file.to_string(), e));
        }
    }

    /// Writes one JSON record into a comma-separated table.
    fn json_row(
        out: &mut BufWriter<File>,
        first: bool,
        row: &impl serde::Serialize,
    ) -> std::io::Result<()> {
        if !first {
            out.write_all(b",")?;
        }
        let json = serde_json::to_string(row).expect("pdb record serialization cannot fail");
        out.write_all(json.as_bytes())
    }
}

impl RecordSink for Files {
    fn whois_org(&mut self, o: WhoisOrg) {
        let r = writeln!(
            self.as2org,
            "{}|{}|{}|{}|{}",
            o.id, o.changed, o.name, o.country, o.source
        );
        self.keep("as2org.txt", r);
        self.whois_orgs += 1;
    }

    fn aut_num(&mut self, a: AutNum) {
        let r = writeln!(
            self.as2org_aut,
            "{}|{}|{}|{}||{}",
            a.asn.value(),
            a.changed,
            a.name,
            a.org,
            a.source
        );
        self.keep("as2org.txt", r);
    }

    fn pdb_org(&mut self, org: PdbOrganization) {
        let r = Self::json_row(&mut self.pdb_orgs_w, self.pdb_orgs == 0, &org);
        self.keep("peeringdb.json", r);
        self.pdb_orgs += 1;
    }

    fn pdb_net(&mut self, net: PdbNetwork) {
        let r = Self::json_row(&mut self.pdb_nets_w, self.pdb_nets == 0, &net);
        self.keep("peeringdb.json", r);
        self.pdb_nets += 1;
    }

    fn web_node(&mut self, host: &str, node: SiteNode) {
        let r = self.web.node(host, &node);
        self.keep("web.json", r);
    }
}

/// The streaming sink: the emission pass over the record files, plus the
/// oracle accumulators.
struct StreamSink {
    dir: PathBuf,
    emission: Emission,
    files: Files,

    // Ground truth + population accumulators (compact rows).
    org_names: Vec<String>,
    truth_rows: Vec<(u32, u32)>,
    pop_rows: Vec<PopRow>,

    orgs: usize,
    asns: usize,
}

fn create(dir: &Path, name: &str) -> Result<BufWriter<File>, IoError> {
    File::create(dir.join(name))
        .map(BufWriter::new)
        .map_err(|e| IoError::Fs(name.to_string(), e))
}

fn fs_err(name: &str) -> impl Fn(std::io::Error) -> IoError + '_ {
    move |e| IoError::Fs(name.to_string(), e)
}

impl StreamSink {
    fn new(config: &GeneratorConfig, dir: &Path) -> Result<Self, IoError> {
        let mut as2org = create(dir, "as2org.txt")?;
        writeln!(as2org, "{ORG_HEADER}").map_err(fs_err("as2org.txt"))?;
        let as2org_aut = create(dir, "as2org.txt.aut.tmp")?;

        let mut pdb_orgs_w = create(dir, "peeringdb.json")?;
        pdb_orgs_w
            .write_all(b"{\"org\":{\"data\":[")
            .map_err(fs_err("peeringdb.json"))?;
        let pdb_nets_w = create(dir, "peeringdb.json.net.tmp")?;

        let web = SnapshotWriter::new(create(dir, "web.json")?).map_err(fs_err("web.json"))?;
        let mut files = Files {
            as2org,
            as2org_aut,
            whois_orgs: 0,
            pdb_orgs_w,
            pdb_nets_w,
            pdb_orgs: 0,
            pdb_nets: 0,
            web,
            error: None,
        };
        let emission = Emission::new(config.seed, &mut files);
        if let Some(e) = files.error.take() {
            return Err(e);
        }

        Ok(StreamSink {
            dir: dir.to_path_buf(),
            emission,
            files,
            org_names: Vec::new(),
            truth_rows: Vec::new(),
            pop_rows: Vec::new(),
            orgs: 0,
            asns: 0,
        })
    }

    /// Finishes every file: stitches the two-section formats, replays the
    /// deferred web passes, scales and writes populations, emits the
    /// topology and ranking, and writes the oracle files.
    fn seal(self, config: &GeneratorConfig) -> Result<StreamReport, IoError> {
        let StreamSink {
            dir,
            emission,
            mut files,
            mut truth_rows,
            org_names,
            mut pop_rows,
            orgs,
            asns,
        } = self;
        let (topology, label_map) = emission.seal(&mut files);
        let Files {
            mut as2org,
            as2org_aut,
            whois_orgs,
            mut pdb_orgs_w,
            pdb_nets_w,
            pdb_orgs,
            pdb_nets,
            web,
            error,
        } = files;
        if let Some(e) = error {
            return Err(e);
        }

        // as2org.txt: append the aut section after its header.
        writeln!(as2org, "{AUT_HEADER}").map_err(fs_err("as2org.txt"))?;
        stitch(as2org, as2org_aut, &dir, "as2org.txt", "as2org.txt.aut.tmp")?;

        // peeringdb.json: close the org table, append the net table.
        pdb_orgs_w
            .write_all(b"]},\"net\":{\"data\":[")
            .map_err(fs_err("peeringdb.json"))?;
        let mut pdb_main = stitch_open(
            pdb_orgs_w,
            pdb_nets_w,
            &dir,
            "peeringdb.json",
            "peeringdb.json.net.tmp",
        )?;
        pdb_main
            .write_all(b"]}}\n")
            .map_err(fs_err("peeringdb.json"))?;
        pdb_main.flush().map_err(fs_err("peeringdb.json"))?;

        let web_hosts = web.finish().map_err(fs_err("web.json"))?;

        // truth.psv: rows sorted by ASN, names from the org table.
        truth_rows.sort_unstable();
        let mut truth = create(&dir, "truth.psv")?;
        writeln!(truth, "# asn|org_id|org_name").map_err(fs_err("truth.psv"))?;
        for &(asn, org_id) in &truth_rows {
            writeln!(truth, "{asn}|{org_id}|{}", org_names[org_id as usize])
                .map_err(fs_err("truth.psv"))?;
        }
        truth.flush().map_err(fs_err("truth.psv"))?;

        // labels.psv.
        let mut labels = create(&dir, "labels.psv")?;
        writeln!(labels, "# asn|siblings").map_err(fs_err("labels.psv"))?;
        for (asn, siblings) in &label_map {
            let list: Vec<String> = siblings.iter().map(|a| a.value().to_string()).collect();
            writeln!(labels, "{}|{}", asn.value(), list.join(" ")).map_err(fs_err("labels.psv"))?;
        }
        labels.flush().map_err(fs_err("labels.psv"))?;

        // populations.psv: apply the singleton scaling, then write by ASN.
        let fixed: u64 = pop_rows
            .iter()
            .filter(|r| !r.singleton)
            .map(|r| r.users)
            .sum();
        let placeholder: u64 = pop_rows
            .iter()
            .filter(|r| r.singleton)
            .map(|r| r.users)
            .sum();
        let scale = singleton_scale(config.total_users, fixed, placeholder);
        pop_rows.sort_unstable_by_key(|r| r.asn);
        let mut total_users = 0u64;
        let mut pops = create(&dir, "populations.psv")?;
        writeln!(pops, "# asn|users|country").map_err(fs_err("populations.psv"))?;
        for row in &pop_rows {
            let users = match scale {
                Some(s) if row.singleton => scale_users(row.users, s),
                _ => row.users,
            };
            total_users += users;
            writeln!(
                pops,
                "{}|{}|{}",
                row.asn,
                users,
                COUNTRIES[row.country as usize].country_code()
            )
            .map_err(fs_err("populations.psv"))?;
        }
        pops.flush().map_err(fs_err("populations.psv"))?;

        // Topology + AS-Rank.
        let mut rel = create(&dir, "as-rel.txt")?;
        rel.write_all(serial1::serialize(&topology).as_bytes())
            .map_err(fs_err("as-rel.txt"))?;
        rel.flush().map_err(fs_err("as-rel.txt"))?;
        let mut rank = create(&dir, "asrank.txt")?;
        for asn in compute_asrank(&topology) {
            writeln!(rank, "{}", asn.value()).map_err(fs_err("asrank.txt"))?;
        }
        rank.flush().map_err(fs_err("asrank.txt"))?;

        // hypergiants.psv + config.json.
        let mut hg = create(&dir, "hypergiants.psv")?;
        writeln!(hg, "# name|asn").map_err(fs_err("hypergiants.psv"))?;
        for (name, asn) in scripted::hypergiant_roster() {
            writeln!(hg, "{}|{}", name, asn.value()).map_err(fs_err("hypergiants.psv"))?;
        }
        hg.flush().map_err(fs_err("hypergiants.psv"))?;
        let mut cfg = create(&dir, "config.json")?;
        let json = serde_json::to_string_pretty(config).expect("config serialization cannot fail");
        cfg.write_all(json.as_bytes())
            .map_err(fs_err("config.json"))?;
        cfg.flush().map_err(fs_err("config.json"))?;

        Ok(StreamReport {
            orgs,
            asns,
            whois_orgs,
            pdb_orgs,
            pdb_nets,
            web_hosts,
            total_users,
        })
    }
}

impl OrgSink for StreamSink {
    /// Emits every record derived from one organization, then lets the
    /// organization drop.
    fn accept(&mut self, org: TruthOrg) {
        if self.files.error.is_some() {
            return;
        }
        self.orgs += 1;
        self.asns += org.units.len();
        debug_assert_eq!(org.id.0, self.org_names.len(), "org ids must be dense");
        for unit in &org.units {
            self.truth_rows.push((unit.asn.value(), org.id.0 as u32));
            if unit.users > 0 {
                self.pop_rows.push(PopRow {
                    asn: unit.asn.value(),
                    users: unit.users,
                    country: unit.country as u16,
                    singleton: org.kind == OrgKind::Singleton,
                });
            }
        }
        self.emission.org(&org, &mut self.files);
        self.org_names.push(org.display_name);
    }
}

/// Appends the flushed `section` tmp file to `main` and deletes it,
/// returning the still-open main writer.
fn stitch_open(
    mut main: BufWriter<File>,
    section: BufWriter<File>,
    dir: &Path,
    main_name: &str,
    tmp_name: &str,
) -> Result<BufWriter<File>, IoError> {
    section
        .into_inner()
        .map_err(|e| IoError::Fs(tmp_name.to_string(), e.into_error()))?
        .sync_all()
        .ok();
    let mut tmp = File::open(dir.join(tmp_name)).map_err(fs_err(tmp_name))?;
    std::io::copy(&mut tmp, &mut main).map_err(fs_err(main_name))?;
    std::fs::remove_file(dir.join(tmp_name)).map_err(fs_err(tmp_name))?;
    Ok(main)
}

/// [`stitch_open`], then flush and close the main file.
fn stitch(
    main: BufWriter<File>,
    section: BufWriter<File>,
    dir: &Path,
    main_name: &str,
    tmp_name: &str,
) -> Result<(), IoError> {
    let mut main = stitch_open(main, section, dir, main_name, tmp_name)?;
    main.flush().map_err(fs_err(main_name))?;
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::io::tests::{sidecar_config, sidecar_rows, sidecar_topology};
    use crate::io::{save, DatasetBundle};
    use crate::SyntheticInternet;
    use borges_types::Asn;

    fn tmpdir(name: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("borges-stream-test-{name}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn streamed_bundle_loads_and_matches_report() {
        let config = GeneratorConfig::tiny(11);
        let dir = tmpdir("loads");
        let report = generate_to_dir(&config, &dir).unwrap();
        let bundle = DatasetBundle::load(&dir).unwrap();

        assert_eq!(bundle.whois.asn_count(), report.asns);
        assert_eq!(bundle.whois.org_count(), report.whois_orgs);
        assert_eq!(bundle.pdb.org_count(), report.pdb_orgs);
        assert_eq!(bundle.pdb.net_count(), report.pdb_nets);
        assert_eq!(bundle.web.host_count(), report.web_hosts);
        assert_eq!(bundle.asrank.len(), report.asns);
        // The files only external tools read.
        assert_eq!(sidecar_topology(&dir).node_count(), report.asns);
        assert_eq!(sidecar_config(&dir), config);
        let users: u64 = sidecar_rows(&dir, "populations.psv")
            .iter()
            .map(|row| row[1].parse::<u64>().unwrap())
            .sum();
        assert_eq!(users, report.total_users);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn streaming_is_deterministic() {
        let config = GeneratorConfig::tiny(5);
        let (a, b) = (tmpdir("det-a"), tmpdir("det-b"));
        let ra = generate_to_dir(&config, &a).unwrap();
        let rb = generate_to_dir(&config, &b).unwrap();
        assert_eq!(ra, rb);
        for name in [
            "as2org.txt",
            "peeringdb.json",
            "web.json",
            "as-rel.txt",
            "asrank.txt",
            "populations.psv",
            "truth.psv",
            "labels.psv",
            "hypergiants.psv",
            "config.json",
        ] {
            let fa = std::fs::read(a.join(name)).unwrap();
            let fb = std::fs::read(b.join(name)).unwrap();
            assert_eq!(fa, fb, "{name} diverged between identical runs");
        }
        let _ = std::fs::remove_dir_all(&a);
        let _ = std::fs::remove_dir_all(&b);
    }

    /// One world per seed: the stream and `generate` run the same truth
    /// and emission passes, so the streamed bundle loads to the
    /// materialized world, and every file but the three `save` lays out
    /// sorted and pretty agrees to the byte.
    #[test]
    fn ground_truth_is_byte_identical_to_the_materialized_path() {
        use borges_websim::snapshot as websnap;
        use borges_whois::as2org_format;
        for config in [GeneratorConfig::tiny(23), GeneratorConfig::medium(7)] {
            let streamed = tmpdir("truth-s");
            let materialized = tmpdir("truth-m");
            let report = generate_to_dir(&config, &streamed).unwrap();
            let world = SyntheticInternet::generate(&config);
            save(&world, &materialized).unwrap();
            assert_eq!(
                report,
                StreamReport {
                    orgs: world.truth.org_count(),
                    asns: world.truth.asn_count(),
                    whois_orgs: world.whois.org_count(),
                    pdb_orgs: world.pdb.org_count(),
                    pdb_nets: world.pdb.net_count(),
                    web_hosts: world.web.host_count(),
                    total_users: world.total_users(),
                }
            );
            let bundle = DatasetBundle::load(&streamed).unwrap();
            assert_eq!(
                as2org_format::serialize(&bundle.whois),
                as2org_format::serialize(&world.whois),
                "WHOIS diverged at seed {}",
                config.seed
            );
            assert_eq!(bundle.pdb.to_json(), world.pdb.to_json());
            assert_eq!(websnap::to_json(&bundle.web), websnap::to_json(&world.web));
            assert_eq!(bundle.asrank, world.asrank);
            for name in [
                "as-rel.txt",
                "populations.psv",
                "hypergiants.psv",
                "truth.psv",
                "labels.psv",
                "config.json",
            ] {
                let s = std::fs::read(streamed.join(name)).unwrap();
                let m = std::fs::read(materialized.join(name)).unwrap();
                assert_eq!(s, m, "{name} diverged between streaming and materialized");
            }
            let _ = std::fs::remove_dir_all(&streamed);
            let _ = std::fs::remove_dir_all(&materialized);
        }
    }

    #[test]
    fn streamed_world_has_the_materialized_shape() {
        let config = GeneratorConfig::tiny(23);
        let dir = tmpdir("shape");
        let report = generate_to_dir(&config, &dir).unwrap();
        let world = SyntheticInternet::generate(&config);
        // Truth-pass structure is identical; emission counts must match
        // exactly (registration decisions are truth-pass state).
        assert_eq!(report.asns, world.truth.asn_count());
        assert_eq!(report.orgs, world.truth.org_count());
        assert_eq!(report.whois_orgs, world.whois.org_count());
        assert_eq!(report.pdb_nets, world.pdb.net_count());
        assert_eq!(report.pdb_orgs, world.pdb.org_count());
        assert_eq!(report.web_hosts, world.web.host_count());
        assert_eq!(report.total_users, world.total_users());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn scripted_anecdotes_survive_streaming() {
        use borges_websim::{SimWebClient, WebClient};
        let dir = tmpdir("anecdotes");
        generate_to_dir(&GeneratorConfig::tiny(7), &dir).unwrap();
        let bundle = DatasetBundle::load(&dir).unwrap();
        // Fig. 3: WHOIS splits Level3/CenturyLink, PeeringDB merges them.
        let l3 = bundle.whois.org_of(Asn::new(3356)).unwrap();
        let ctl = bundle.whois.org_of(Asn::new(209)).unwrap();
        assert_ne!(l3.id, ctl.id);
        let l3p = bundle.pdb.org_of_asn(Asn::new(3356)).unwrap();
        let ctlp = bundle.pdb.org_of_asn(Asn::new(209)).unwrap();
        assert_eq!(l3p.id, ctlp.id);
        // Fig. 5b: the Clearwire chain still lands on www.t-mobile.com.
        let client = SimWebClient::browser(&bundle.web);
        let r = client
            .fetch(&"http://www.clearwire.com".parse().unwrap())
            .unwrap();
        assert_eq!(r.final_url.unwrap().host().as_str(), "www.t-mobile.com");
        let _ = std::fs::remove_dir_all(&dir);
    }
}
