//! Fig. 25 — trajectory comparison while a user writes 'Z': Kinect skeletal
//! ground truth vs. RFIPad's gray maps / estimated path.

use experiments::{Bench, Deployment, DeploymentSpec};
use hand_kinematics::kinect::KinectTracker;
use hand_kinematics::user::UserProfile;
use rand::rngs::StdRng;
use rand::SeedableRng;
use rfipad::accumulate::accumulative_image;
use rfipad::RfipadConfig;

fn main() {
    let bench = Bench::calibrate(
        Deployment::build(DeploymentSpec::default(), 42),
        RfipadConfig::default(),
        1,
    );
    let user = UserProfile::average();
    let trial = bench.run_letter_trial('Z', &user, 2525);
    println!("letter written: Z   recognized: {:?}", trial.result.letter);

    // Kinect ground truth (30 Hz skeletal samples of the same trajectory).
    let kinect = KinectTracker::default();
    let mut rng = StdRng::seed_from_u64(25);
    let samples = kinect.track(&trial.session.trajectory, &mut rng);
    let err = kinect.mean_error(&trial.session.trajectory, &samples);
    println!(
        "Kinect: {} skeletal samples at {:.0} Hz, mean joint error {:.1} mm",
        samples.len(),
        kinect.rate_hz,
        err * 1000.0
    );

    // RFIPad's view: per-stroke gray maps + estimated hand paths.
    let streams = bench.recognizer.streams(&trial.reports);
    let pad = bench.deployment.pad;
    for (i, stroke) in trial.result.strokes.iter().enumerate() {
        println!(
            "\n== stroke {} — recognized {} over {:.2}..{:.2} s ==",
            i + 1,
            stroke.stroke,
            stroke.span.start,
            stroke.span.end
        );
        let img = accumulative_image(
            &bench.deployment.layout,
            &streams,
            Some(bench.recognizer.calibration()),
            stroke.span.start,
            stroke.span.end,
        );
        println!("RFIPad gray map:");
        print!("{}", img.to_ascii());
        println!("after Otsu:");
        print!("{}", stroke.motion.mask.to_ascii());

        // Estimated path vs the Kinect track over the same span.
        let path = bench.recognizer.span_path(&streams, stroke.span);
        println!("RFIPad path (grid row,col) vs Kinect (normalized row,col):");
        for p in &path {
            let t = stroke.span.start + p.frac * stroke.span.duration();
            let kinect_point = samples
                .iter()
                .min_by(|a, b| (a.time - t).abs().partial_cmp(&(b.time - t).abs()).unwrap())
                .map(|s| pad.normalize(s.position));
            match kinect_point {
                Some((kr, kc)) => println!(
                    "  t={:.2}s  rfipad=({:.2},{:.2})  kinect=({:.2},{:.2})  Δ={:.2} cells",
                    t,
                    p.point.0,
                    p.point.1,
                    kr * 4.0,
                    kc * 4.0,
                    ((p.point.0 - kr * 4.0).powi(2) + (p.point.1 - kc * 4.0).powi(2)).sqrt()
                ),
                None => println!("  t={t:.2}s  rfipad=({:.2},{:.2})", p.point.0, p.point.1),
            }
        }
    }
    println!(
        "\nPaper's finding: the two trajectories are very consistent — the gray maps\n\
         trace the same Z the Kinect skeleton records."
    );
}
