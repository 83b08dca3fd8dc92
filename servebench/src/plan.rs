//! Workload generation. Every line the server receives is built here, as a
//! pure function of the workload, the seed and the client index.
//!
//! Each client owns its sessions, so replaying each client's requests in
//! order through one in-process server reproduces every reply byte for
//! byte, whatever the interleaving across clients was.

use livelit_server::json::{int, obj, str, Json};

/// The three traffic mixes.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// Small sessions, GUI interactions: transport, JSON, wire and the
    /// incremental fast path carry the cost.
    Interact,
    /// Large documents: parse, elaborate, typecheck, collect, evaluation
    /// and analysis carry the cost.
    EditLarge,
    /// Short bursts on many long-lived sessions under a journal, with a
    /// graceful drain and a restart from the snapshot directory mid-run.
    Restart,
}

impl Workload {
    /// Every workload, in report order.
    pub const ALL: [Workload; 3] = [Workload::Interact, Workload::EditLarge, Workload::Restart];

    /// The workload's command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::Interact => "interact",
            Workload::EditLarge => "edit_large",
            Workload::Restart => "restart",
        }
    }

    /// Looks a workload up by its command-line name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// What a step's latency sample measures.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Kind {
    /// Outside every latency sample: handshakes, document building, the
    /// first render after `open`.
    Setup,
    /// One `open` request.
    Open,
    /// A model-changing request followed by `render`.
    Interact,
    /// A skeleton `edit_splice`, then `render`, then `analyze`.
    Edit,
    /// A diagnostics refresh.
    Analyze,
    /// A line that must get a structured error reply.
    Malformed,
    /// `connect()` followed by the `render` an editor sends on reconnect.
    Reconnect,
}

/// One request line.
#[derive(Clone, Debug)]
pub struct Req {
    /// The line, without its newline.
    pub line: String,
    /// The op it names (`"malformed"` for broken lines).
    pub op: &'static str,
    /// The session it addresses and the server journals it under.
    pub session: Option<String>,
    /// Whether a correct server answers `"ok":true`.
    pub expect_ok: bool,
}

/// Requests sent back to back and timed as one sample.
#[derive(Clone, Debug)]
pub struct Step {
    /// What the sample measures.
    pub kind: Kind,
    /// The requests, in order.
    pub reqs: Vec<Req>,
    /// Whether the step starts on a fresh connection.
    pub connect: bool,
}

impl Step {
    fn new(kind: Kind, reqs: Vec<Req>) -> Step {
        Step {
            kind,
            reqs,
            connect: false,
        }
    }
}

/// A small deterministic generator (splitmix64); the benchmark takes no
/// registry dependencies.
#[derive(Clone, Debug)]
pub struct Rng(u64);

impl Rng {
    /// A generator for one `(seed, stream)` pair.
    pub fn new(seed: u64, stream: u64) -> Rng {
        let mut rng = Rng(seed ^ stream.wrapping_mul(0xA076_1D64_78BD_642F));
        rng.next_u64();
        rng
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// A value in `0..n`.
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n.max(1)
    }

    /// A value in `lo..=hi`.
    pub fn range(&mut self, lo: i64, hi: i64) -> i64 {
        lo + self.below((hi - lo + 1) as u64) as i64
    }

    /// True with probability `num / den`.
    pub fn chance(&mut self, num: u64, den: u64) -> bool {
        self.below(den) < num
    }
}

/// The documents sessions are opened on.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Doc {
    /// One `$slider`.
    Slider,
    /// Three `$slider`s, one reading another (the B13 fan-out document).
    Fanout,
    /// `$color`, filled into an annotated hole.
    Color,
    /// `$checkbox`.
    Checkbox,
    /// The grading `$curve` object livelit declared in the module.
    Curve,
    /// The `$basic_adjustments` preset mapped over `n` photos.
    Photos(usize),
    /// `n` chained definitions under a `$slider` reading the last one.
    Chain(usize),
    /// `n` independent `$slider` instances.
    Sliders(usize),
    /// The grading library over a `$dataframe` with `n` student rows.
    Grading(usize),
}

struct Session {
    name: String,
    doc: Doc,
}

const CURVE_DECL: &str = "livelit $curve (score : Int) at Int { model Bool init true; \
     expand fun generous : Bool -> if generous then \"fun score : Int -> score + 5\" \
     else \"fun score : Int -> score - 5\" }";

const DATAFRAME_TYP: &str = "(.cols List(Str), .rows List((Str, List(Float))))";

/// The documents each `interact` client opens, twice over.
const INTERACT_SESSIONS: [Doc; 6] = [
    Doc::Slider,
    Doc::Fanout,
    Doc::Color,
    Doc::Checkbox,
    Doc::Curve,
    Doc::Photos(2),
];

/// Sessions each `restart` client keeps alive.
const RESTART_SESSIONS: usize = 24;
/// Interactions per `restart` burst.
const BURST_INTERACTIONS: usize = 6;
/// Students in the `edit_large` grading document.
const STUDENTS: usize = 16;

/// The document each client opens, renders and closes again to time
/// `open`, and every how many rounds it does: one document kind per
/// workload, so the median is not balanced on the boundary between two
/// kinds' costs, spread over the whole loop.
fn open_probe(workload: Workload) -> (Doc, u64) {
    match workload {
        Workload::Interact => (Doc::Curve, 1),
        Workload::EditLarge => (Doc::Chain(256), 4),
        Workload::Restart => (Doc::Slider, 4),
    }
}

fn req(op: &'static str, session: &str, mut extra: Vec<(&'static str, Json)>) -> Req {
    let mut fields = vec![("op", str(op)), ("session", str(session))];
    fields.append(&mut extra);
    Req {
        line: obj(fields).to_string(),
        op,
        session: Some(session.to_owned()),
        expect_ok: true,
    }
}

fn render(session: &str) -> Req {
    req("render", session, vec![])
}

fn edit(session: &str, edit: Vec<(&'static str, Json)>) -> Req {
    req("edit", session, vec![("edit", obj(edit))])
}

fn edit_action(session: &str, hole: i64, action: String) -> Req {
    edit(
        session,
        vec![
            ("kind", str("dispatch")),
            ("at", int(hole)),
            ("action", str(action)),
        ],
    )
}

fn edit_splice(session: &str, hole: i64, splice: i64, contents: String) -> Req {
    edit(
        session,
        vec![
            ("kind", str("edit_splice")),
            ("at", int(hole)),
            ("splice", int(splice)),
            ("contents", str(contents)),
        ],
    )
}

fn click(session: &str, hole: i64, target: String) -> Req {
    req(
        "dispatch",
        session,
        vec![("hole", int(hole)), ("target", str(target))],
    )
}

/// A request the server must refuse with a structured error.
fn refused(line: String, op: &'static str, session: Option<&str>) -> Req {
    Req {
        line,
        op,
        session: session.map(str::to_owned),
        expect_ok: false,
    }
}

fn source(doc: Doc, rng: &mut Rng) -> String {
    match doc {
        Doc::Slider => format!("$slider@0{{{}}}(0 : Int; 100 : Int)", rng.range(0, 100)),
        Doc::Fanout => format!(
            "let c = $slider@2{{{}}}(0 : Int; 9 : Int) in \
             let a = $slider@0{{{}}}(0 : Int; 100 : Int) in \
             let b = $slider@1{{{}}}(a : Int; 100 : Int) in a + b + c",
            rng.range(0, 9),
            rng.range(0, 100),
            rng.range(0, 100)
        ),
        Doc::Color => "(?0 : (.r Int, .g Int, .b Int, .a Int))".to_owned(),
        Doc::Checkbox => format!("$checkbox@0{{{}}}()", rng.chance(1, 2)),
        Doc::Curve => format!(
            "{CURVE_DECL} def midterm : Int = {} ;; $curve@0{{{}}}(midterm : Int)",
            rng.range(40, 100),
            rng.chance(1, 2)
        ),
        Doc::Photos(n) => {
            let urls: Vec<String> = (0..n)
                .map(|i| format!("\"img://p{}-{i}\"", rng.below(1000)))
                .collect();
            format!(
                "let classic_look = fun url : Str -> \
                   $basic_adjustments@0{{(.contrast 1, .brightness 2)}}(\
                     url : Str; {} : Int; {} : Int) in \
                 let photos = [Str| {}] in \
                 (fix go : (List(Str) -> List((.w Int, .h Int, .px List(Int)))) -> \
                  fun urls : List(Str) -> \
                  lcase urls \
                  | [] -> [(.w Int, .h Int, .px List(Int))|] \
                  | u :: rest -> classic_look u :: go rest \
                  end) photos",
                rng.range(0, 20),
                rng.range(0, 20),
                urls.join(", ")
            )
        }
        Doc::Chain(n) => {
            let mut src = format!("def d0 : Int = {} ;;\n", rng.range(1, 9));
            for i in 1..n {
                src.push_str(&format!("def d{i} : Int = d{} + 1 ;;\n", i - 1));
            }
            src.push_str(&format!(
                "$slider@0{{{}}}(0 : Int; d{} : Int)",
                rng.range(0, 100),
                n - 1
            ));
            src
        }
        Doc::Sliders(n) => {
            let mut src = String::new();
            for i in 0..n {
                src.push_str(&format!("def d{i} : Int = {} ;;\n", rng.range(50, 150)));
            }
            let sum: Vec<String> = (0..n)
                .map(|i| format!("$slider@{i}{{{}}}(0 : Int; d{i} : Int)", rng.range(0, 50)))
                .collect();
            src.push_str(&sum.join(" + "));
            src
        }
        Doc::Grading(_) => {
            let mut src = String::new();
            for (name, ty, def) in livelit_std::grading::grading_source() {
                src.push_str(&format!("def {name} : {ty} = {def} ;;\n"));
            }
            src.push_str(&format!(
                "let grades = (?0 : {DATAFRAME_TYP}) in \
                 let averages = compute_weighted_averages grades [Float| 1., 1.] in \
                 let cutoffs = (.A 86., .B 76., .C 67., .D 48.) in \
                 format_for_university (assign_grades averages cutoffs)"
            ));
            src
        }
    }
}

fn score(rng: &mut Rng) -> String {
    format!("{}.{}", rng.range(40, 99), rng.below(10))
}

/// The `open` step, then the setup that makes the session interactive
/// (filling holes, building the dataframe) and the first render.
fn open_steps(s: &Session, rng: &mut Rng) -> Vec<Step> {
    let name = s.name.as_str();
    let open = req("open", name, vec![("source", str(source(s.doc, rng)))]);
    let mut setup = Vec::new();
    match s.doc {
        Doc::Color => setup.push(edit(
            name,
            vec![
                ("kind", str("fill_hole")),
                ("at", int(0)),
                ("livelit", str("$color")),
                ("params", Json::Arr(vec![])),
            ],
        )),
        Doc::Grading(students) => {
            setup.push(edit(
                name,
                vec![
                    ("kind", str("fill_hole")),
                    ("at", int(0)),
                    ("livelit", str("$dataframe")),
                    ("params", Json::Arr(vec![])),
                ],
            ));
            for _ in 0..2 {
                setup.push(edit_action(name, 0, "(.add_col ())".into()));
            }
            for _ in 0..students {
                setup.push(edit_action(name, 0, "(.add_row ())".into()));
            }
            // Splices are numbered in allocation order: the two column
            // keys, then per row its key and its two cells.
            for (col, key) in ["\"midterm\"", "\"final\""].into_iter().enumerate() {
                setup.push(edit_splice(name, 0, col as i64, key.to_owned()));
            }
            for row in 0..students as i64 {
                let base = 2 + 3 * row;
                setup.push(edit_splice(name, 0, base, format!("\"student{row}\"")));
                setup.push(edit_splice(name, 0, base + 1, score(rng)));
                setup.push(edit_splice(name, 0, base + 2, score(rng)));
            }
        }
        _ => {}
    }
    setup.push(render(name));
    vec![
        Step::new(Kind::Setup, vec![open]),
        Step::new(Kind::Setup, setup),
    ]
}

fn step_click(name: &str, hole: i64, rng: &mut Rng) -> Req {
    let target = if rng.chance(1, 2) { "inc" } else { "dec" };
    click(name, hole, target.to_owned())
}

/// One GUI interaction on `s`: a model change and the render after it, or
/// (on the definition chain) a skeleton edit, render and analysis.
fn interaction(s: &Session, rng: &mut Rng) -> Step {
    let name = s.name.as_str();
    let change = match s.doc {
        Doc::Slider => {
            if rng.chance(1, 2) {
                step_click(name, 0, rng)
            } else {
                edit_action(name, 0, format!("(.set {})", rng.range(0, 100)))
            }
        }
        Doc::Fanout => match rng.below(3) {
            0 => edit_action(name, 0, format!("(.set {})", rng.range(0, 100))),
            hole => step_click(name, hole as i64, rng),
        },
        Doc::Color => click(name, 0, format!("swatch-{}", rng.below(6))),
        Doc::Checkbox => click(name, 0, "toggle".to_owned()),
        Doc::Curve => {
            if rng.chance(1, 2) {
                edit_action(name, 0, format!("(.set {})", rng.chance(1, 2)))
            } else {
                edit_splice(name, 0, 0, format!("midterm + {}", rng.range(-10, 10)))
            }
        }
        Doc::Photos(_) => {
            let field = if rng.chance(1, 2) {
                "set_contrast"
            } else {
                "set_brightness"
            };
            edit_action(name, 0, format!("(.{field} {})", rng.range(0, 40)))
        }
        Doc::Sliders(n) => {
            let hole = rng.below(n as u64) as i64;
            if rng.chance(1, 2) {
                step_click(name, hole, rng)
            } else {
                edit_action(name, hole, format!("(.set {})", rng.range(0, 50)))
            }
        }
        Doc::Grading(students) => {
            let row = rng.below(students as u64) as i64;
            let cell = 3 + 3 * row + rng.below(2) as i64;
            edit_splice(name, 0, cell, score(rng))
        }
        Doc::Chain(n) => {
            let splice = edit_splice(
                name,
                0,
                1,
                format!("d{} + {}", rng.below(n as u64), rng.range(0, 50)),
            );
            return Step::new(
                Kind::Edit,
                vec![splice, render(name), req("analyze", name, vec![])],
            );
        }
    };
    Step::new(Kind::Interact, vec![change, render(name)])
}

fn malformed(client: usize, s: &Session, rng: &mut Rng) -> Step {
    let name = s.name.as_str();
    let req = match rng.below(5) {
        0 => refused(
            format!("{{\"op\":\"render\",\"session\":{name:?}"),
            "malformed",
            None,
        ),
        1 => refused(
            format!("{{\"op\":\"develop\",\"session\":{name:?}}}"),
            "malformed",
            Some(name),
        ),
        2 => refused("{\"op\":\"render\"}".to_owned(), "malformed", None),
        3 => refused(
            format!(
                "{{\"op\":\"render\",\"session\":\"ghost-{client}-{}\"}}",
                rng.below(1000)
            ),
            "malformed",
            None,
        ),
        _ => refused(
            format!("{{\"op\":\"edit\",\"session\":{name:?},\"edit\":{{\"kind\":\"warp\"}}}}"),
            "malformed",
            Some(name),
        ),
    };
    Step::new(Kind::Malformed, vec![req])
}

/// One client's traffic: the setup it sends on its first connection, then
/// an endless sequence of rounds for the timed loop.
pub struct ClientPlan {
    workload: Workload,
    client: usize,
    sessions: Vec<Session>,
    rng: Rng,
    round: u64,
}

impl ClientPlan {
    /// The plan of client `client` of `workload` under `seed`.
    pub fn new(workload: Workload, seed: u64, client: usize) -> ClientPlan {
        let docs: Vec<Doc> = match workload {
            Workload::Interact => INTERACT_SESSIONS
                .iter()
                .chain(INTERACT_SESSIONS.iter())
                .copied()
                .collect(),
            Workload::EditLarge => vec![
                Doc::Chain(256),
                Doc::Sliders(64),
                Doc::Grading(STUDENTS),
                Doc::Photos(16),
            ],
            Workload::Restart => (0..RESTART_SESSIONS)
                .map(|i| if i % 2 == 0 { Doc::Slider } else { Doc::Curve })
                .collect(),
        };
        let sessions = docs
            .into_iter()
            .enumerate()
            .map(|(i, doc)| Session {
                name: format!("{}-c{client}-s{i}", workload.name()),
                doc,
            })
            .collect();
        ClientPlan {
            workload,
            client,
            sessions,
            rng: Rng::new(seed, client as u64 + 1),
            round: 0,
        }
    }

    /// The steps sent on the client's first connection before the timed
    /// loop: a handshake (so the accept wait lands outside every sample),
    /// then every session's `open` and setup.
    pub fn setup(&mut self) -> Vec<Step> {
        let hello = refused(
            format!(
                "{{\"op\":\"render\",\"session\":\"hello-{}\"}}",
                self.client
            ),
            "handshake",
            None,
        );
        let mut steps = vec![Step::new(Kind::Setup, vec![hello])];
        for s in &self.sessions {
            steps.extend(open_steps(s, &mut self.rng));
        }
        steps
    }

    /// The next round of the timed loop.
    pub fn next_round(&mut self) -> Vec<Step> {
        let round = self.round;
        self.round += 1;
        let rng = &mut self.rng;
        let mut steps = Vec::new();
        let (doc, every) = open_probe(self.workload);
        if round.is_multiple_of(every) {
            let probe = Session {
                name: format!("{}-c{}-open{round}", self.workload.name(), self.client),
                doc,
            };
            steps.extend(open_steps(&probe, rng));
            steps[0].kind = Kind::Open;
            steps.push(Step::new(
                Kind::Setup,
                vec![req("close", &probe.name, vec![])],
            ));
        }
        match self.workload {
            Workload::Interact => {
                for s in &self.sessions {
                    if rng.chance(1, 100) {
                        steps.push(malformed(self.client, s, rng));
                    }
                    steps.push(interaction(s, rng));
                }
                if round % 2 == 1 {
                    let s = &self.sessions[(round / 2) as usize % self.sessions.len()];
                    steps.push(Step::new(
                        Kind::Analyze,
                        vec![req("analyze", &s.name, vec![])],
                    ));
                }
            }
            Workload::EditLarge => {
                steps.extend(self.sessions.iter().map(|s| interaction(s, rng)));
            }
            Workload::Restart => {
                // One burst: reconnect and render, interact, refresh the
                // diagnostics every other burst, disconnect.
                let s = &self.sessions[round as usize % self.sessions.len()];
                let mut reconnect = Step::new(Kind::Reconnect, vec![render(&s.name)]);
                reconnect.connect = true;
                steps.push(reconnect);
                steps.extend((0..BURST_INTERACTIONS).map(|_| interaction(s, rng)));
                if round % 2 == 1 {
                    steps.push(Step::new(
                        Kind::Analyze,
                        vec![req("analyze", &s.name, vec![])],
                    ));
                }
            }
        }
        steps
    }
}
