//! `gems` — command line for the distributed shared database.
//!
//! ```text
//! gems --records HOST:PORT/DIR --pool HOST:PORT/VOL[,HOST:PORT/VOL...] COMMAND [ARGS]
//!
//! commands:
//!   ingest NAME LOCALFILE [k=v ...]   store a file with attributes
//!   get NAME LOCALFILE                fetch (checksum-verified)
//!   ls                                list all names
//!   query KEY PATTERN                 attribute search (wildcards)
//!   show NAME                         print a record
//!   rm NAME                           delete everywhere
//!   audit                             one auditor pass
//!   repair                            one replicator pass
//!   rebuild                           rebuild the index from sidecars
//!   daemon SECS                       run maintenance every SECS
//! ```
//!
//! Authentication: `--hostname` (default) or `--key M:S:KEY`, applied
//! to every server named. The record index is one directory on any
//! Chirp server (`--records`), one file per logical name; it may sit on
//! a pool server, outside the pool's volume.

use std::io::Read;
use std::sync::Arc;
use std::time::Duration;

use chirp_client::AuthMethod;
use gems::{Gems, GemsConfig};
use tss_core::stubfs::DataServer;

fn usage() -> ! {
    eprintln!(
        "usage: gems --records H:P/DIR --pool H:P/VOL[,H:P/VOL...] \\\n\
         \x20      [--target N] [--hostname|--key M:S:KEY] COMMAND [ARGS]\n\
         commands: ingest NAME FILE [k=v...] | get NAME FILE | ls |\n\
         \x20         query KEY PATTERN | show NAME | rm NAME |\n\
         \x20         audit | repair | rebuild | daemon SECS"
    );
    std::process::exit(2);
}

fn main() {
    if let Err(e) = run() {
        eprintln!("gems: {e}");
        std::process::exit(1);
    }
}

fn run() -> Result<(), Box<dyn std::error::Error>> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut records_spec: Option<String> = None;
    let mut pool_spec: Option<String> = None;
    let mut target = 2u32;
    let mut auth: Vec<AuthMethod> = Vec::new();
    let mut rest: Vec<String> = Vec::new();
    let mut it = args.into_iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--records" => records_spec = it.next(),
            "--pool" => pool_spec = it.next(),
            "--target" => {
                target = it
                    .next()
                    .and_then(|v| v.parse().ok())
                    .unwrap_or_else(|| usage())
            }
            "--hostname" => auth.push(AuthMethod::Hostname),
            "--key" => {
                let spec = it.next().unwrap_or_else(|| usage());
                let mut parts = spec.splitn(3, ':');
                let (Some(m), Some(s), Some(key)) = (parts.next(), parts.next(), parts.next())
                else {
                    usage()
                };
                auth.push(AuthMethod::key(m, s, key.as_bytes()));
            }
            "--help" | "-h" => usage(),
            _ => {
                rest.push(arg);
                rest.extend(it.by_ref());
            }
        }
    }
    let (Some(records_spec), Some(pool_spec)) = (records_spec, pool_spec) else {
        usage()
    };
    if auth.is_empty() {
        auth.push(AuthMethod::Hostname);
    }
    let server = |spec: &str, default_dir: &str| {
        let (endpoint, dir) = spec.split_once('/').unwrap_or((spec, default_dir));
        DataServer::new(endpoint, &format!("/{dir}"), auth.clone())
    };
    let pool: Vec<DataServer> = pool_spec.split(',').map(|s| server(s, "gems")).collect();
    let mut config = GemsConfig::new(server(&records_spec, "gems-records"), pool);
    config.default_target = target;
    let gems = Gems::connect(config)?;

    let Some(command) = rest.first().cloned() else {
        usage()
    };
    let args = &rest[1..];
    let arg = |i: usize| -> Result<&str, Box<dyn std::error::Error>> {
        args.get(i)
            .map(String::as_str)
            .ok_or_else(|| "missing argument".into())
    };
    match command.as_str() {
        "ingest" => {
            let name = arg(0)?;
            let mut data = Vec::new();
            std::fs::File::open(arg(1)?)?.read_to_end(&mut data)?;
            let attrs: Vec<(&str, &str)> = args[2..]
                .iter()
                .filter_map(|kv| kv.split_once('='))
                .collect();
            let rec = gems.ingest(name, &attrs, &data)?;
            println!("{} bytes, checksum {:016x}", rec.size, rec.checksum);
        }
        "get" => {
            let data = gems.fetch(arg(0)?)?;
            std::fs::write(arg(1)?, &data)?;
            println!("{} bytes", data.len());
        }
        "ls" => {
            for name in gems.list()? {
                println!("{name}");
            }
        }
        "query" => {
            for name in gems.query(arg(0)?, arg(1)?)? {
                println!("{name}");
            }
        }
        "show" => print!("{}", gems.record(arg(0)?)?.render()),
        "rm" => gems.delete(arg(0)?)?,
        "audit" => {
            let r = gems::audit_once(&gems)?;
            println!(
                "{} records: {} healthy, {} missing, {} corrupt",
                r.records, r.healthy, r.missing, r.corrupt
            );
        }
        "repair" => {
            let r = gems::replicate_once(&gems, usize::MAX)?;
            println!(
                "{} deficient, {} copied, {} unrepairable",
                r.deficient, r.copied, r.unrepairable
            );
        }
        "rebuild" => {
            let r = gems::rebuild(&gems)?;
            println!(
                "{} records reconstructed from {} replicas ({} rejected)",
                r.records, r.replicas, r.rejected
            );
        }
        "daemon" => {
            let period = Duration::from_secs(arg(0)?.parse()?);
            let daemons = gems::GemsDaemons::spawn(Arc::new(gems), period);
            println!("gems maintenance running every {period:?}");
            loop {
                std::thread::sleep(Duration::from_secs(60));
                println!(
                    "cycles {}, replicas restored {}",
                    daemons.cycles(),
                    daemons.repaired()
                );
            }
        }
        _ => return Err(format!("unknown command {command:?}").into()),
    }
    Ok(())
}
