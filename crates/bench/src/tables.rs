//! Pretty-printers for Table 1, Table 2 and the §4.2.3 worked example.

use ctb_gpu_specs::Thresholds;
use ctb_matrix::GemmShape;
use ctb_tiling::strategy::{
    BATCHED_STRATEGIES_128, BATCHED_STRATEGIES_256, SINGLE_GEMM_STRATEGIES,
};
use ctb_tiling::{model, select_tiling};

/// Render Table 1 (single-GEMM strategies) as the paper lays it out.
pub fn table1() -> String {
    let mut out = String::from("Tiling Strategy |  BY |  BX | BK | Threads | Sub-Tile\n");
    for s in SINGLE_GEMM_STRATEGIES {
        out.push_str(&format!(
            "{:>15} | {:>3} | {:>3} | {:>2} | {:>7} | {}x{}\n",
            s.kind.to_string(),
            s.by,
            s.bx,
            s.bk,
            s.threads,
            s.sub_y,
            s.sub_x
        ));
    }
    out
}

/// Render Table 2 (batched strategies, both thread versions).
pub fn table2() -> String {
    let mut out = String::from("  Name |  BY |  BX | BK | Sub-Tile(128T) | Sub-Tile(256T)\n");
    for (s128, s256) in BATCHED_STRATEGIES_128.iter().zip(&BATCHED_STRATEGIES_256) {
        out.push_str(&format!(
            "{:>6} | {:>3} | {:>3} | {:>2} | {:>14} | {}x{}\n",
            s128.kind.to_string(),
            s128.by,
            s128.bx,
            s128.bk,
            format!("{}x{}", s128.sub_y, s128.sub_x),
            s256.sub_y,
            s256.sub_x
        ));
    }
    out
}

/// Replay the §4.2.3 worked example, returning its narrative.
pub fn worked_example() -> String {
    let shapes =
        [GemmShape::new(16, 32, 128), GemmShape::new(64, 64, 64), GemmShape::new(256, 256, 64)];
    let th = Thresholds::paper_v100();
    let sol = select_tiling(&shapes, &th);
    let kinds: Vec<String> = sol.per_gemm.iter().map(|s| s.kind.to_string()).collect();
    let small = ctb_tiling::strategy::batched(
        ctb_tiling::StrategyKind::Small,
        ctb_tiling::ThreadCount::T256,
    );
    let first_tlp = model::tlp(&shapes, &[small, small, small]);
    format!(
        "GEMMs: 16x32x128, 64x64x64, 256x256x64 (TLP threshold {})\n\
         round 1 (small, small, small): TLP = {first_tlp}\n\
         final solution ({}): TLP = {}\n",
        th.tlp_threshold,
        kinds.join(", "),
        sol.tlp
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tables_render_all_rows() {
        let t1 = table1();
        assert_eq!(t1.lines().count(), 7);
        assert!(t1.contains("huge") && t1.contains("128 | 128 |  8 |     256 | 8x8"));
        let t2 = table2();
        assert_eq!(t2.lines().count(), 7);
        assert!(t2.contains("16x8"), "huge 128T sub-tile");
    }

    #[test]
    fn worked_example_reports_paper_numbers() {
        let text = worked_example();
        assert!(text.contains("70144"), "{text}");
        assert!(text.contains("17920"), "{text}");
        assert!(text.contains("small, medium, medium"), "{text}");
    }
}
