//! Randomized property tests for the tensor substrate.
//!
//! Each property is checked over many [`DetRng`]-seeded random cases, so
//! the suite is fully deterministic and needs no external test framework.

use vela_tensor::gemm::{Epilogue, Layout};
use vela_tensor::ops;
use vela_tensor::rng::DetRng;
use vela_tensor::Tensor;

const CASES: u64 = 32;

fn random_tensor(rows: usize, cols: usize, rng: &mut DetRng) -> Tensor {
    Tensor::uniform((rows, cols), -10.0, 10.0, rng)
}

#[test]
fn softmax_rows_is_a_distribution() {
    for seed in 0..CASES {
        let t = random_tensor(4, 6, &mut DetRng::new(seed));
        let s = ops::softmax_rows(&t);
        for i in 0..4 {
            let sum: f32 = s.row(i).iter().sum();
            assert!((sum - 1.0).abs() < 1e-4, "seed {seed} row {i}: sum {sum}");
            assert!(s.row(i).iter().all(|&p| (0.0..=1.0).contains(&p)));
        }
    }
}

#[test]
fn softmax_preserves_order() {
    for seed in 0..CASES {
        let t = random_tensor(1, 5, &mut DetRng::new(seed));
        let s = ops::softmax_rows(&t);
        for a in 0..5 {
            for b in 0..5 {
                if t.at(a) > t.at(b) {
                    assert!(s.at(a) >= s.at(b), "seed {seed}: order broken at ({a},{b})");
                }
            }
        }
    }
}

#[test]
fn matmul_distributes_over_addition() {
    for seed in 0..CASES {
        let mut rng = DetRng::new(seed);
        let a = random_tensor(3, 4, &mut rng);
        let b = random_tensor(4, 2, &mut rng);
        let c = random_tensor(4, 2, &mut rng);
        let lhs = a.matmul(&b.add(&c));
        let rhs = a.matmul(&b).add(&a.matmul(&c));
        for i in 0..lhs.len() {
            assert!(
                (lhs.at(i) - rhs.at(i)).abs() < 1e-2,
                "seed {seed} idx {i}: {} vs {}",
                lhs.at(i),
                rhs.at(i)
            );
        }
    }
}

#[test]
fn matmul_tn_nt_agree_with_transpose() {
    for seed in 0..CASES {
        let mut rng = DetRng::new(seed);
        let a = random_tensor(3, 4, &mut rng);
        let b = random_tensor(3, 5, &mut rng);
        let tn = a.matmul_tn(&b);
        let explicit = a.transpose().matmul(&b);
        assert!(vela_tensor::approx_eq(
            tn.as_slice(),
            explicit.as_slice(),
            1e-3
        ));

        let c = Tensor::from_vec((5, 4), vec![0.5; 20]);
        let nt = a.matmul_nt(&c);
        let explicit2 = a.matmul(&c.transpose());
        assert!(vela_tensor::approx_eq(
            nt.as_slice(),
            explicit2.as_slice(),
            1e-3
        ));
    }
}

#[test]
fn gather_then_scatter_restores_selected_rows() {
    for seed in 0..CASES {
        let mut rng = DetRng::new(seed);
        let t = random_tensor(6, 3, &mut rng);
        let mut idx: Vec<usize> = (0..(1 + rng.below(5))).map(|_| rng.below(6)).collect();
        // Deduplicate so scatter-add writes each destination once.
        idx.sort_unstable();
        idx.dedup();
        let gathered = t.gather_rows(&idx);
        let mut out = Tensor::zeros((6, 3));
        out.scatter_add_rows(&idx, &gathered);
        for (pos, &i) in idx.iter().enumerate() {
            assert_eq!(out.row(i), gathered.row(pos), "seed {seed}");
            assert_eq!(out.row(i), t.row(i), "seed {seed}");
        }
    }
}

#[test]
fn topk_values_dominate_rest() {
    for seed in 0..CASES {
        let mut rng = DetRng::new(seed);
        let t = random_tensor(2, 6, &mut rng);
        let k = 1 + rng.below(6);
        let (idx, vals) = ops::topk_rows(&t, k);
        for r in 0..2 {
            let chosen: Vec<usize> = idx[r * k..(r + 1) * k].to_vec();
            let min_chosen = vals[r * k..(r + 1) * k]
                .iter()
                .cloned()
                .fold(f32::INFINITY, f32::min);
            for j in 0..6 {
                if !chosen.contains(&j) {
                    assert!(
                        t.at2(r, j) <= min_chosen + 1e-6,
                        "seed {seed} k {k}: unchosen {} beats chosen min {min_chosen}",
                        t.at2(r, j)
                    );
                }
            }
        }
    }
}

#[test]
fn transpose_is_involution() {
    for seed in 0..CASES {
        let t = random_tensor(4, 7, &mut DetRng::new(seed));
        assert_eq!(t.transpose().transpose(), t);
    }
}

#[test]
fn norm_scales_linearly() {
    for seed in 0..CASES {
        let mut rng = DetRng::new(seed);
        let t = random_tensor(3, 3, &mut rng);
        let s = rng.uniform(0.0, 5.0);
        let scaled = t.scale(s);
        assert!(
            (scaled.norm() - s * t.norm()).abs() < 1e-2 * (1.0 + t.norm()),
            "seed {seed} scale {s}"
        );
    }
}

#[test]
fn uniform_tensor_reproducible() {
    let mut a = DetRng::new(77);
    let mut b = DetRng::new(77);
    let ta = Tensor::uniform((8, 8), -1.0, 1.0, &mut a);
    let tb = Tensor::uniform((8, 8), -1.0, 1.0, &mut b);
    assert_eq!(ta, tb);
}

fn bits(t: &Tensor) -> Vec<u32> {
    t.as_slice().iter().map(|v| v.to_bits()).collect()
}

/// Every `&mut` method of `Tensor`, as a write to a `(k, c)` tensor, with the
/// operands it needs drawn from `rng`. A method added without a line here is
/// untested; one whose line is here but which forgot to drop the kept panels
/// fails [`a_write_through_any_mut_method_drops_the_kept_panels`].
#[allow(clippy::type_complexity)]
fn writes(k: usize, c: usize, rng: &mut DetRng) -> Vec<(&'static str, Box<dyn Fn(&mut Tensor)>)> {
    let other = random_tensor(k, c, rng);
    let rows = random_tensor(2, c, rng);
    let picks: Vec<usize> = (0..k).map(|_| rng.below(k)).collect();
    let (i, j) = (rng.below(k), rng.below(c));
    let v = rng.uniform(-10.0, 10.0);
    let (lhs, rhs) = (random_tensor(2, k, rng), random_tensor(2, c, rng));
    vec![
        ("set2", Box::new(move |t| t.set2(i, j, v))),
        (
            "as_mut_slice",
            Box::new(move |t| t.as_mut_slice()[i * c + j] = v),
        ),
        ("row_mut", Box::new(move |t| t.row_mut(i).fill(v))),
        ("copy_from", {
            let other = other.clone();
            Box::new(move |t| t.copy_from(&other))
        }),
        ("map_inplace", Box::new(move |t| t.map_inplace(|x| x * v))),
        ("add_assign", {
            let other = other.clone();
            Box::new(move |t| t.add_assign(&other))
        }),
        ("axpy", {
            let other = other.clone();
            Box::new(move |t| t.axpy(v, &other))
        }),
        ("scale_inplace", Box::new(move |t| t.scale_inplace(v))),
        (
            "gemm_into",
            Box::new(move |t| t.gemm_into(Layout::Tn, &lhs, &rhs, Epilogue::AddScaled(v))),
        ),
        ("fill_zero", Box::new(|t| t.fill_zero())),
        (
            "scatter_add_rows",
            Box::new(move |t| t.scatter_add_rows(&[i, i], &rows)),
        ),
        (
            "gather_rows_into",
            Box::new(move |t| other.gather_rows_into(&picks, t)),
        ),
        (
            "set_keep_panels",
            Box::new(|t| {
                t.set_keep_panels(false);
                t.set_keep_panels(true);
            }),
        ),
    ]
}

#[test]
fn a_write_through_any_mut_method_drops_the_kept_panels() {
    for seed in 0..CASES {
        let mut rng = DetRng::new(seed);
        // Both panel widths, and short final panels.
        let (r, k, c) = (1 + rng.below(20), 1 + rng.below(20), 1 + rng.below(80));
        let x = random_tensor(r, k, &mut rng);
        let w = random_tensor(k, c, &mut rng);
        for (name, write) in writes(k, c, &mut rng) {
            let mut kept = w.clone();
            kept.set_keep_panels(true);
            assert_eq!(bits(&x.matmul(&kept)), bits(&x.matmul(&w)), "seed {seed}");
            assert!(kept.kept_panels().is_some(), "seed {seed}: nothing kept");
            let mut plain = w.clone();
            write(&mut kept);
            write(&mut plain);
            assert!(kept.keeps_panels(), "seed {seed}: {name} cleared the mark");
            assert_eq!(
                bits(&x.matmul(&kept)),
                bits(&x.matmul(&plain)),
                "seed {seed}: {r}x{k}x{c} product after {name}"
            );
        }
    }
}

#[test]
fn a_clone_keeps_the_mark_but_not_the_panels() {
    let mut rng = DetRng::new(3);
    let x = random_tensor(5, 64, &mut rng);
    let mut w = random_tensor(64, 40, &mut rng);
    w.set_keep_panels(true);
    let want = bits(&x.matmul(&w));
    let kept = w.kept_panels().expect("the product packed them").as_ptr();
    assert_eq!(bits(&x.matmul(&w)), want);
    assert_eq!(
        w.kept_panels().map(<[f32]>::as_ptr),
        Some(kept),
        "re-packed"
    );

    let copy = w.clone();
    assert!(copy.keeps_panels());
    assert!(copy.kept_panels().is_none());
    assert_eq!(bits(&x.matmul(&copy)), want);
    assert_ne!(copy.kept_panels().map(<[f32]>::as_ptr), Some(kept));

    w.set_keep_panels(false);
    assert!(w.kept_panels().is_none());
    assert_eq!(bits(&x.matmul(&w)), want);
    assert!(
        w.kept_panels().is_none(),
        "an unmarked tensor keeps nothing"
    );
}
