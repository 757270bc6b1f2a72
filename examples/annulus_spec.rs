//! The Definition 6.3 annulus-search interface end to end: specify a
//! promise interval of inner products, get back the Theorem 6.4 exponent
//! and a working index.
//!
//! ```sh
//! cargo run --release --example annulus_spec
//! ```

use dsh_core::points::DenseStore;
use dsh_data::sphere_data::planted_sphere_instance;
use dsh_index::{sphere_annulus, AnnulusSpec};
use dsh_math::rng::seeded;

fn main() {
    let d = 64;
    let n = 1500;

    // Promise: some point has inner product in [0.55, 0.65] with the
    // query. We accept anything in the 1.5x-widened (ratio-space) window —
    // narrow enough that background points (alpha ~ N(0, 1/sqrt(d)))
    // essentially never qualify.
    let spec = AnnulusSpec::widened(0.55, 0.65, 1.5);
    println!(
        "promise interval  [alpha-, alpha+] = [{:.3}, {:.3}]",
        spec.alpha.0, spec.alpha.1
    );
    println!(
        "reporting interval [beta-,  beta+] = [{:.3}, {:.3}]",
        spec.beta.0, spec.beta.1
    );
    println!("peak inner product = {:.3}", spec.peak());
    println!("Theorem 6.4 query exponent rho = {:.3}\n", spec.rho());

    let mut found = 0;
    let trials = 5;
    for trial in 0..trials {
        let mut rng = seeded(1000 + trial);
        let inst = planted_sphere_instance(&mut rng, n, d, 0.6);
        let points = DenseStore::from(inst.points);
        let index = sphere_annulus::build(points, d, spec, 1.4, 1.5, &mut rng);
        let (hit, stats) = index.query(&inst.query);
        match hit {
            Some(m) => {
                found += 1;
                println!(
                    "trial {trial}: found point {} with alpha = {:.3} ({} candidates, {} exact checks, L = {})",
                    m.index,
                    m.value,
                    stats.candidates_retrieved,
                    stats.distance_computations,
                    index.repetitions()
                );
            }
            None => println!("trial {trial}: miss (allowed with probability <= 1/2)"),
        }
    }
    println!(
        "\nfound in {found}/{trials} trials (Theorem 6.1 guarantees success probability >= 1/2)"
    );
}
