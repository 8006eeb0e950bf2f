//! N-way spatial intersection.
//!
//! Table 4's multi-study queries "require the database to compute an
//! n-way spatial intersection" — e.g. the REGION where all 5 PET studies
//! have intensities in a band.  A fold of pairwise intersections is
//! correct but scans intermediate results repeatedly; the k-way
//! simultaneous merge below scans each input exactly once, the run
//! analogue of the multi-way spatial join.

use crate::kernel::{self, RunsCursor};
use crate::region::Region;
use crate::run::Run;

/// Intersects any number of regions in a single simultaneous merge scan.
///
/// Returns `None` for an empty input (there is no universe to default
/// to).  All regions must share a [`crate::GridGeometry`].
///
/// The heavy lifting is [`kernel::intersect_many`]: a k-way merge that
/// gallops over disjoint spans and emits the canonical result directly —
/// no intermediate region per fold step, no id vectors.
///
/// # Panics
/// Panics if the regions' geometries differ.
pub fn intersect_all(regions: &[&Region]) -> Option<Region> {
    let first = regions.first()?;
    for r in &regions[1..] {
        assert_eq!(first.geometry(), r.geometry(), "n-way intersection across incompatible grids");
    }
    if regions.len() == 1 {
        return Some((*first).clone());
    }
    let mut cursors: Vec<RunsCursor<&[Run]>> =
        regions.iter().map(|r| RunsCursor::new(r.runs())).collect();
    let mut refs: Vec<&mut RunsCursor<&[Run]>> = cursors.iter_mut().collect();
    let Ok(runs) = kernel::intersect_many(&mut refs);
    Some(Region::from_runs(first.geometry(), runs))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::GridGeometry;
    use proptest::prelude::*;
    use qbism_sfc::CurveKind;

    fn g() -> GridGeometry {
        GridGeometry::new(CurveKind::Hilbert, 3, 3)
    }

    #[test]
    fn empty_input_yields_none() {
        assert!(intersect_all(&[]).is_none());
    }

    #[test]
    fn single_region_is_identity() {
        let r = Region::from_ids(g(), vec![1, 2, 3, 99]);
        assert_eq!(intersect_all(&[&r]).unwrap(), r);
    }

    #[test]
    fn any_empty_region_empties_result() {
        let a = Region::full(g());
        let e = Region::empty(g());
        assert!(intersect_all(&[&a, &e, &a]).unwrap().is_empty());
    }

    #[test]
    fn three_way_example() {
        let a = Region::from_ids(g(), vec![1, 2, 3, 4, 5, 10, 11, 12]);
        let b = Region::from_ids(g(), vec![2, 3, 4, 11, 12, 13]);
        let c = Region::from_ids(g(), vec![0, 3, 4, 5, 12, 30]);
        let i = intersect_all(&[&a, &b, &c]).unwrap();
        assert_eq!(i, Region::from_ids(g(), vec![3, 4, 12]));
    }

    #[test]
    fn disjoint_regions_intersect_empty() {
        let a = Region::from_ids(g(), vec![1, 2, 3]);
        let b = Region::from_ids(g(), vec![4, 5, 6]);
        assert!(intersect_all(&[&a, &b]).unwrap().is_empty());
    }

    #[test]
    #[should_panic(expected = "incompatible grids")]
    fn mixed_geometry_panics() {
        let a = Region::empty(g());
        let b = Region::empty(GridGeometry::new(CurveKind::Morton, 3, 3));
        let _ = intersect_all(&[&a, &b]);
    }

    proptest! {
        #[test]
        fn kway_matches_pairwise_fold(
            sets in proptest::collection::vec(
                proptest::collection::vec(0u64..512, 0..150), 2..6),
        ) {
            let regions: Vec<Region> =
                sets.into_iter().map(|ids| Region::from_ids(g(), ids)).collect();
            let refs: Vec<&Region> = regions.iter().collect();
            let kway = intersect_all(&refs).unwrap();
            let fold = regions[1..]
                .iter()
                .fold(regions[0].clone(), |acc, r| acc.intersect(r));
            prop_assert_eq!(kway, fold);
        }
    }
}
