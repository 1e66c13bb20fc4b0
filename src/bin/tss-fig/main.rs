//! `tss-fig` — regenerate one of the paper's figures or tables.
//!
//! ```text
//! tss-fig <fig3|fig4|fig5|fig6|fig7|fig8|fig9|sp5|ablation>
//! ```
//!
//! Each prints the paper's reported numbers next to what this
//! reproduction produces: a calibrated model where the original needed
//! 2005 hardware, plus live loopback measurements where the protocol
//! shape itself is the claim. EXPERIMENTS.md records the outputs. The
//! simulated tables (`fig6`–`fig8`, `sp5`, ablations 1, 3 and 4) are
//! deterministic. An unknown name prints this usage and exits 2.

mod ablation;
mod cluster;
mod micro;
mod preservation;
mod rig;

const USAGE: &str = "usage: tss-fig <fig3|fig4|fig5|fig6|fig7|fig8|fig9|sp5|ablation>";

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let name = match &args[..] {
        [name] => name.as_str(),
        _ => "",
    };
    match name {
        "fig3" => micro::fig3(),
        "fig4" => micro::fig4(),
        "fig5" => micro::fig5(),
        "fig6" => cluster::scaling(6),
        "fig7" => cluster::scaling(7),
        "fig8" => cluster::scaling(8),
        "fig9" => preservation::fig9(),
        "sp5" => cluster::sp5(),
        "ablation" => ablation::ablation(),
        _ => {
            eprintln!("{USAGE}");
            std::process::exit(2);
        }
    }
}
