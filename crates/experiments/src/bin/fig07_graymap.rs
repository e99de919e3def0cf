//! Fig. 7 — gray maps of the accumulative phase difference when a hand
//! moves down the third column: (a) without diversity suppression, (b) with
//! suppression, (c) after Otsu binarization.

use experiments::{Bench, Deployment, DeploymentSpec};
use hand_kinematics::stroke::{PlacedStroke, Stroke, StrokeShape};
use hand_kinematics::user::UserProfile;
use rfipad::accumulate::accumulative_image;
use rfipad::streams::TagStreams;
use rfipad::RfipadConfig;

fn main() {
    // Location 4 multipath makes the suppression's effect visible, as in
    // the paper's illustration.
    let bench = Bench::calibrate(
        Deployment::build(
            DeploymentSpec {
                location: 4,
                ..DeploymentSpec::default()
            },
            42,
        ),
        RfipadConfig::default(),
        7,
    );
    let user = UserProfile::average();
    // Hand moves down the third column (col index 2 → normalized 0.5).
    let placement = PlacedStroke::new(Stroke::new(StrokeShape::VLine), (0.05, 0.5), (0.95, 0.5));
    let writer = hand_kinematics::writer::Writer::new(bench.deployment.pad, user.clone());
    let mut rng = <rand::rngs::StdRng as rand::SeedableRng>::seed_from_u64(11);
    let session = writer.write_stroke(placement, 1.0, &mut rng);
    let observations = bench.record_session(&session, &user, &mut rng);
    let span = (session.strokes[0].start, session.strokes[0].end);

    let layout = &bench.deployment.layout;
    let cal = bench.recognizer.calibration();

    // (a) raw: no suppression (raw unwrapped phases, no weighting).
    let raw_streams = TagStreams::build(layout, None, &observations);
    let img_raw = accumulative_image(layout, &raw_streams, None, span.0, span.1);
    // (b) suppressed: Eq. 8 centring + Eq. 10 weighting + noise floor.
    let sup_streams = TagStreams::build(layout, Some(cal), &observations);
    let img_sup = accumulative_image(layout, &sup_streams, Some(cal), span.0, span.1);
    // (c) Otsu binarization of (b).
    let binary = img_sup.otsu_binarize();

    println!("\n== Fig. 7(a) — without diversity suppression (gray map) ==");
    print!("{}", img_raw.to_ascii());
    println!("\n== Fig. 7(b) — with diversity suppression (gray map) ==");
    print!("{}", img_sup.to_ascii());
    println!("\n== Fig. 7(c) — after Otsu's algorithm (binary) ==");
    print!("{}", binary.to_ascii());

    // Contrast metric: hot-column mean vs rest.
    let contrast = |img: &sigproc::grid::GridImage| {
        let mut col2 = 0.0;
        let mut rest = 0.0;
        for r in 0..5 {
            for c in 0..5 {
                if c == 2 {
                    col2 += img.get(r, c);
                } else {
                    rest += img.get(r, c);
                }
            }
        }
        (col2 / 5.0) / (rest / 20.0).max(1e-9)
    };
    println!(
        "\ncolumn-3 contrast: raw {:.1}×, suppressed {:.1}× — the hand-movement area\n\
         is explicitly outlined once the diversities are suppressed.",
        contrast(&img_raw),
        contrast(&img_sup)
    );
}
