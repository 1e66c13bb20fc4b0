//! `chirp` — command-line client for Chirp file servers.
//!
//! ```text
//! chirp HOST:PORT [auth options] COMMAND [ARGS]
//!
//! commands:
//!   whoami                  show the granted subject
//!   ls PATH                 list a directory
//!   stat PATH               show file attributes
//!   cat PATH                print a file to stdout
//!   put LOCAL REMOTE        upload a file
//!   get REMOTE LOCAL        download a file
//!   rm PATH                 remove a file
//!   mv FROM TO              rename within the server
//!   mkdir PATH / rmdir PATH
//!   checksum PATH           server-side CRC-64
//!   statfs                  storage totals
//!   getacl PATH             show a directory ACL
//!   setacl PATH SUBJ RIGHTS grant/replace/revoke ('' rights = revoke)
//!   thirdput PATH TARGET TPATH  server-to-server copy
//!
//! auth options (tried in order given; default: hostname):
//!   --hostname  --unix  --key METHOD:SUBJECT:KEY
//! ```

use std::io::Write;
use std::time::Duration;

use chirp_client::{AuthMethod, Connection};

fn usage() -> ! {
    eprintln!("usage: chirp HOST:PORT [--hostname|--unix|--key M:S:KEY]... COMMAND [ARGS]");
    eprintln!("run with --help for the command list");
    std::process::exit(2);
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.iter().any(|a| a == "--help" || a == "-h") {
        eprintln!("{}", HELP);
        return;
    }
    let mut it = args.into_iter();
    let Some(addr) = it.next() else { usage() };
    let mut methods: Vec<AuthMethod> = Vec::new();
    let mut rest: Vec<String> = Vec::new();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--hostname" => methods.push(AuthMethod::Hostname),
            "--unix" => methods.push(AuthMethod::Unix),
            "--key" => {
                let Some(spec) = it.next() else { usage() };
                let mut parts = spec.splitn(3, ':');
                let (Some(m), Some(s), Some(key)) = (parts.next(), parts.next(), parts.next())
                else {
                    usage()
                };
                methods.push(AuthMethod::key(m, s, key.as_bytes()));
            }
            _ => {
                rest.push(arg);
                rest.extend(it.by_ref());
            }
        }
    }
    if methods.is_empty() {
        methods.push(AuthMethod::Hostname);
    }
    let (Some(command), args) = (rest.first().cloned(), &rest[1.min(rest.len())..]) else {
        usage()
    };

    if let Err(e) = run(&addr, &methods, &command, args) {
        eprintln!("chirp: {e}");
        std::process::exit(1);
    }
}

fn run(
    addr: &str,
    methods: &[AuthMethod],
    command: &str,
    args: &[String],
) -> Result<(), Box<dyn std::error::Error>> {
    let mut conn = Connection::connect(addr, Duration::from_secs(30))?;
    conn.authenticate(methods)?;
    let arg = |i: usize| -> Result<&str, Box<dyn std::error::Error>> {
        args.get(i)
            .map(String::as_str)
            .ok_or_else(|| "missing argument (see --help)".into())
    };
    match command {
        "whoami" => println!("{}", conn.whoami()?),
        "ls" => {
            let (long, path) = match args.first().map(String::as_str) {
                Some("-l") => (true, args.get(1).map(String::as_str).unwrap_or("/")),
                Some(p) => (false, p),
                None => (false, "/"),
            };
            if long {
                for (name, st) in conn.getlongdir(path)? {
                    let kind = if st.is_dir() { 'd' } else { '-' };
                    println!("{kind} {:>12} {:>10} {}", st.size, st.mtime, name);
                }
            } else {
                for name in conn.getdir(path)? {
                    println!("{name}");
                }
            }
        }
        "stat" => {
            let st = conn.stat(arg(0)?)?;
            println!(
                "type {:?} size {} mode {:o} inode {} mtime {}",
                st.file_type, st.size, st.mode, st.inode, st.mtime
            );
        }
        "cat" => {
            let mut out = std::io::stdout().lock();
            conn.getfile_to(arg(0)?, &mut out)?;
            out.flush()?;
        }
        "put" => {
            let f = std::fs::File::open(arg(0)?)?;
            let len = conn.putfile_file(arg(1)?, 0o644, &f)?;
            println!("{len} bytes");
        }
        "get" => {
            let mut f = std::fs::File::create(arg(1)?)?;
            let n = conn.getfile_to(arg(0)?, &mut f)?;
            println!("{n} bytes");
        }
        "rm" => conn.unlink(arg(0)?)?,
        "mv" => conn.rename(arg(0)?, arg(1)?)?,
        "mkdir" => conn.mkdir(arg(0)?, 0o755)?,
        "rmdir" => conn.rmdir(arg(0)?)?,
        "checksum" => println!("{:016x}", conn.checksum(arg(0)?)?),
        "statfs" => {
            let st = conn.statfs()?;
            println!("total {} free {}", st.total_bytes, st.free_bytes);
        }
        "getacl" => print!("{}", conn.getacl(arg(0)?)?),
        "setacl" => conn.setacl(
            arg(0)?,
            arg(1)?,
            args.get(2).map(String::as_str).unwrap_or(""),
        )?,
        "thirdput" => {
            let n = conn.thirdput(arg(0)?, arg(1)?, arg(2)?)?;
            println!("{n} bytes");
        }
        _ => return Err(format!("unknown command {command:?} (see --help)").into()),
    }
    Ok(())
}

const HELP: &str = "\
usage: chirp HOST:PORT [auth options] COMMAND [ARGS]

auth options (tried in order; default --hostname):
  --hostname                identify as the connecting host
  --unix                    filesystem challenge/response
  --key M:SUBJECT:KEY       challenge-response key credential (e.g. globus:...)

commands:
  whoami | ls [-l] [PATH] | stat PATH | cat PATH
  put LOCAL REMOTE | get REMOTE LOCAL
  rm PATH | mv FROM TO | mkdir PATH | rmdir PATH
  checksum PATH | statfs | getacl PATH | setacl PATH SUBJECT RIGHTS
  thirdput PATH TARGET_HOST:PORT TARGET_PATH";
