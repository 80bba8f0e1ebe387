//! Snapshots written before the fit became exact still restore.
//!
//! `fixtures/snapshot_multistart.json` is a sealed cache snapshot of the
//! previous schema, saved while fits ran a multistart Levenberg–Marquardt
//! solver: its fit records carry `basin_hits` and `early_stopped`, which
//! fits no longer have, and its curves and exact-tier payload came from
//! that solver. The fit entry must restore with its gathered data intact
//! and its curves re-fitted, the exact entry must be dropped, and a
//! service started from the file must serve bit-identically to
//! `reference_response`. A snapshot saved from the restored contents is
//! of the current schema and omits the retired keys.

use hslb::fit_all;
use hslb_cesm::{Component, Resolution};
use hslb_nlsq::ScalingFitOptions;
use hslb_service::snapshot::{
    load_snapshot, save_snapshot, SnapshotPolicy, LEGACY_SNAPSHOT_SCHEMA, SNAPSHOT_SCHEMA,
};
use hslb_service::{reference_response, CacheTier, ServiceOptions, TuneRequest, TuningService};
use hslb_telemetry::codec;
use hslb_telemetry::json::{parse, Value};
use std::path::{Path, PathBuf};

fn fixture() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/snapshot_multistart.json")
}

fn document(path: &Path) -> Value {
    let text = std::fs::read_to_string(path).unwrap();
    parse(codec::unseal(&text).unwrap()).unwrap()
}

fn bits(v: &Value) -> f64 {
    f64::from_bits(u64::from_str_radix(v.as_str().unwrap(), 16).unwrap())
}

fn scratch_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "hslb-snapshot-compat-{name}-{}",
        std::process::id()
    ));
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

#[test]
fn pre_exact_fit_snapshot_restores_its_data_and_refits() {
    let doc = document(&fixture());
    assert_eq!(
        doc.get("schema").and_then(Value::as_str),
        Some(LEGACY_SNAPSHOT_SCHEMA)
    );
    let restored = load_snapshot(&fixture());
    assert!(!restored.record.cold_start);
    assert_eq!(restored.record.restored_exact, 0);
    assert_eq!(restored.record.restored_fits, 1);
    assert_eq!(
        restored.record.fallbacks,
        vec!["exact: 1 entries solved from multistart fits, dropped".to_string()]
    );

    // Every stored data point comes back bit for bit; the curves are the
    // exact fit of that data, never the stored multistart ones.
    let entry = &doc.get("fits").and_then(Value::as_arr).unwrap()[0];
    let (key, (data, fits)) = &restored.fits[0];
    assert_eq!(Some(key.as_str()), entry.get("key").and_then(Value::as_str));
    let refit = fit_all(data, &ScalingFitOptions::default()).unwrap();
    for &c in &Component::OPTIMIZED {
        let stored_points = entry
            .get("data")
            .and_then(|d| d.get(c.label()))
            .and_then(Value::as_arr)
            .unwrap();
        let points: Vec<(f64, f64)> = stored_points
            .iter()
            .map(|p| {
                let pair = p.as_arr().unwrap();
                (bits(&pair[0]), bits(&pair[1]))
            })
            .collect();
        let got = data.of(c);
        assert_eq!(got.len(), points.len(), "{c}");
        for (&(n, y), &(sn, sy)) in got.iter().zip(&points) {
            assert_eq!(
                (n.to_bits(), y.to_bits()),
                (sn.to_bits(), sy.to_bits()),
                "{c}"
            );
        }
        let stored = entry.get("fits").and_then(|f| f.get(c.label())).unwrap();
        assert!(stored.get("basin_hits").is_some() && stored.get("early_stopped").is_some());
        let (fit, want) = (fits.fit(c).unwrap(), refit.fit(c).unwrap());
        assert_eq!(fit.curve, want.curve, "{c}");
        assert_eq!(fit.sse.to_bits(), want.sse.to_bits(), "{c}");
        assert!(fit.sse <= bits(stored.get("sse").unwrap()), "{c}");
    }

    // Re-saved, the document is of the current schema, omits the retired
    // keys and restores the same curves.
    let dir = scratch_dir("resave");
    let path = dir.join("resaved.json");
    save_snapshot(&path, &restored.exact, &restored.fits).unwrap();
    assert_eq!(
        document(&path).get("schema").and_then(Value::as_str),
        Some(SNAPSHOT_SCHEMA)
    );
    let text = std::fs::read_to_string(&path).unwrap();
    assert!(!text.contains("basin_hits") && !text.contains("early_stopped"));
    let again = load_snapshot(&path);
    assert!(again.record.fallbacks.is_empty());
    for &c in &Component::OPTIMIZED {
        let (x, y) = (again.fits[0].1 .1.fit(c).unwrap(), fits.fit(c).unwrap());
        assert_eq!(x.curve, y.curve);
        assert_eq!(x.sse.to_bits(), y.sse.to_bits());
    }
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn service_restored_from_a_pre_exact_fit_snapshot_serves_reference_answers() {
    let dir = scratch_dir("serve");
    let path = dir.join("snapshot.json");
    std::fs::copy(fixture(), &path).unwrap();
    let service = TuningService::start(ServiceOptions {
        snapshot: Some(SnapshotPolicy::new(&path)),
        ..ServiceOptions::default()
    });
    // The key the snapshot's exact tier held, then a budget that shares
    // its fit key: both are served from the re-fitted fit tier.
    for (id, nodes) in [(1, 128), (2, 160)] {
        let req = TuneRequest::new(id, Resolution::OneDegree, nodes);
        let resp = service
            .submit(req.clone())
            .expect("submit")
            .wait()
            .expect("restored service serves");
        assert_eq!(resp.tier, CacheTier::Fit, "{}", req.exact_key());
        assert_eq!(
            resp.payload.fingerprint(),
            reference_response(&req).unwrap().fingerprint(),
            "{}",
            req.exact_key()
        );
    }
    service.shutdown();
    std::fs::remove_dir_all(&dir).unwrap();
}
