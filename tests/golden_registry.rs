//! Golden regression test: the full experiment registry at a short,
//! fully-pinned scenario must serialize to a byte-identical JSON
//! corpus.
//!
//! This guards the whole pipeline at once — timeline generation, the
//! packed reception loop, every delivery scheme, the hint statistics,
//! PP-ARQ, and the result/JSON layer. Any behavioral change (including
//! future performance work on the chip pipeline) must either leave the
//! corpus untouched or consciously update the pinned fingerprint with
//! an explanation in the commit.

use ppr::sim::experiments::registry;
use ppr::sim::results::fingerprint;
use ppr::sim::scenario::ScenarioBuilder;

/// FNV-1a of the concatenated JSON documents (one per testbed
/// experiment, in registry order, newline-separated) under the pinned
/// scenario below. `mesh10k` and `meshjam` are excluded — mesh floods
/// are far too heavy for a regression test, so each gets its own small
/// pinned corpus ([`mesh_json_fingerprint_is_pinned`],
/// [`meshjam_json_fingerprint_is_pinned`]) instead. The `jam`
/// duty-cycle sweep *is* in the corpus, pinning the PP-ARQ-vs-whole-
/// frame comparison end to end.
const GOLDEN_FINGERPRINT: u64 = 0x9888_552a_1fd1_2bd0;

/// FNV-1a of the `mesh10k` JSON document at the pinned 400-node
/// scenario below. Unchanged by the adversary work: benign parameters
/// leave the mesh driver bit-identical to the pre-adversary code.
const MESH_FINGERPRINT: u64 = 0x67bb_fae3_0308_58e4;

/// FNV-1a of the `meshjam` JSON document at the pinned 400-node
/// scenario below (reactive jammer + churn substituted by default).
const MESHJAM_FINGERPRINT: u64 = 0x3a73_9c08_08b7_cbed;

/// FNV-1a of the `mesh10k` and `meshjam` JSON documents at the two
/// ends of the `mesh_density` range, as `(id, density, nodes,
/// fingerprint)`. The receiver squelch and the candidate lists change
/// with density, so these pin both regimes next to the density-12
/// pins above. At density 1 the flood dies out after a few hops at any
/// node count, so the 10 000-node default layout stays cheap; at 50
/// every reception has dozens of spatial candidates, and 900 nodes
/// keep each case near 2 s in a debug build.
const DENSITY_FINGERPRINTS: [(&str, f64, usize, u64); 4] = [
    ("mesh10k", 1.0, 10_000, 0x229f_fc9d_141e_3e48),
    ("mesh10k", 50.0, 900, 0xd42a_86a2_1917_ad26),
    ("meshjam", 1.0, 10_000, 0x8f9f_a729_c8c4_317b),
    ("meshjam", 50.0, 900, 0xdaeb_cce6_6523_5856),
];

/// The thread counts every mesh pin is checked at: the flood alone,
/// and with a decode crew of one helper (where the machine has a second
/// thread to run it on). The JSON must not depend on them.
const CREW_THREADS: [usize; 2] = [1, 2];

#[test]
fn registry_json_fingerprint_is_pinned() {
    // Every knob pinned: builder overrides beat any PPR_* environment
    // the harness might set, and threads=1 keeps the scenario snapshot
    // machine-independent (results are thread-count invariant anyway;
    // the reception loop's parity tests prove that).
    let scenario = ScenarioBuilder::new()
        .duration_s(2.0)
        .seed(0x0050_5052)
        .threads(1)
        .arq_packets(40)
        .relay_packets(60)
        .build();

    let mut results = Vec::new();
    let mut corpus = String::new();
    for exp in registry() {
        if exp.id() == "mesh10k" || exp.id() == "meshjam" {
            continue;
        }
        let r = exp.run_with(&scenario, &results);
        assert_eq!(r.id, exp.id());
        corpus.push_str(&r.to_json().render());
        corpus.push('\n');
        results.push(r);
    }
    assert_eq!(results.len(), registry().len() - 2);

    let fp = fingerprint(corpus.as_bytes());
    assert_eq!(
        fp, GOLDEN_FINGERPRINT,
        "registry JSON corpus changed: fingerprint {fp:#018x} != pinned \
         {GOLDEN_FINGERPRINT:#018x}. If the change is intentional, update \
         GOLDEN_FINGERPRINT and explain the behavioral delta in the commit."
    );
}

#[test]
fn mesh_json_fingerprint_is_pinned() {
    use ppr::sim::experiments::find;

    let scenario = ScenarioBuilder::new()
        .seed(0x0050_5052)
        .threads(1)
        .mesh_nodes(400)
        .mesh_density(12.0)
        .build();

    let exp = find("mesh10k").expect("mesh10k registered");
    // Alone, and with a decode crew of one helper.
    for threads in CREW_THREADS {
        let corpus = exp
            .run_with_threads(&scenario, &[], threads)
            .to_json()
            .render();
        let fp = fingerprint(corpus.as_bytes());
        assert_eq!(
            fp, MESH_FINGERPRINT,
            "mesh10k JSON on {threads} threads changed: fingerprint {fp:#018x} != pinned \
             {MESH_FINGERPRINT:#018x}. If the change is intentional, update \
             MESH_FINGERPRINT and explain the behavioral delta in the commit."
        );
    }
}

#[test]
fn meshjam_json_fingerprint_is_pinned() {
    use ppr::sim::experiments::find;

    let scenario = ScenarioBuilder::new()
        .seed(0x0050_5052)
        .threads(1)
        .mesh_nodes(400)
        .mesh_density(12.0)
        .build();

    let exp = find("meshjam").expect("meshjam registered");
    // Alone, and with a decode crew of one helper.
    for threads in CREW_THREADS {
        let corpus = exp
            .run_with_threads(&scenario, &[], threads)
            .to_json()
            .render();
        let fp = fingerprint(corpus.as_bytes());
        assert_eq!(
            fp, MESHJAM_FINGERPRINT,
            "meshjam JSON on {threads} threads changed: fingerprint {fp:#018x} != pinned \
             {MESHJAM_FINGERPRINT:#018x}. If the change is intentional, update \
             MESHJAM_FINGERPRINT and explain the behavioral delta in the commit."
        );
    }
}

#[test]
fn mesh_density_fingerprints_are_pinned() {
    use ppr::sim::experiments::find;

    for (id, density, nodes, pinned) in DENSITY_FINGERPRINTS {
        let scenario = ScenarioBuilder::new()
            .seed(0x0050_5052)
            .threads(1)
            .mesh_nodes(nodes)
            .mesh_density(density)
            .build();
        let exp = find(id).expect("mesh experiment registered");
        for threads in CREW_THREADS {
            let corpus = exp
                .run_with_threads(&scenario, &[], threads)
                .to_json()
                .render();
            let fp = fingerprint(corpus.as_bytes());
            assert_eq!(
                fp, pinned,
                "{id} JSON at density {density}, {nodes} nodes, {threads} threads changed: \
                 fingerprint {fp:#018x} != pinned {pinned:#018x}. If the change is \
                 intentional, update DENSITY_FINGERPRINTS and explain the behavioral \
                 delta in the commit."
            );
        }
    }
}

/// FNV-1a of the `mrd` JSON document at the default duration, as
/// `(seed, eta, fingerprint)`: at the held-out seed 20070827, and at the
/// default seed with a stricter threshold (`eta=3`). `mrd` renders and
/// decodes only the transmissions two receivers hear; the others only
/// move their hearers' busy horizons, from a draw over the preamble
/// (its module docs). These pin that rule against the full decode of
/// every transmission, which produced the same documents.
const MRD_FINGERPRINTS: [(u64, u8, u64); 2] = [
    (20_070_827, 6, 0x8f06_609f_4ce1_e4fe),
    (0x0050_5052, 3, 0x7227_d6c6_5338_6613),
];

#[test]
fn mrd_json_fingerprints_are_pinned() {
    use ppr::sim::experiments::find;

    let exp = find("mrd").expect("mrd registered");
    for (seed, eta, pinned) in MRD_FINGERPRINTS {
        let scenario = ScenarioBuilder::new()
            .seed(seed)
            .eta(eta)
            .threads(1)
            .build();
        let corpus = exp.run_with(&scenario, &[]).to_json().render();
        let fp = fingerprint(corpus.as_bytes());
        assert_eq!(
            fp, pinned,
            "mrd JSON at seed {seed}, eta {eta} changed: fingerprint {fp:#018x} != pinned \
             {pinned:#018x}. If the change is intentional, update MRD_FINGERPRINTS and \
             explain the behavioral delta in the commit."
        );
    }
}
