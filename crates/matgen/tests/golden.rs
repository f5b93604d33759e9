//! Golden digests of the generators' output.
//!
//! Every generator is a pure function of its descriptor, and the serve
//! ledger's cache keys and the bench ledger's rows are functions of that
//! output. These digests pin the bytes: an FNV-1a hash of `rowptr`,
//! `colidx` and the value bit patterns for every family at three sizes
//! and three seeds, of `random_dense`, and the plan-cache keys
//! (`MatrixFingerprint::key`) of a few matrices. A change to any
//! generator's draw order or output layout fails here. On a deliberate
//! change, run with `--nocapture` and copy the printed tables.

use nmt::MatrixFingerprint;
use nmt_formats::Csr;
use nmt_matgen::{generate, random_dense, GenKind, MatrixDesc};

/// FNV-1a over little-endian 32-bit words, with each array's length
/// mixed in first so boundaries cannot alias.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn word(&mut self, v: u32) {
        for byte in v.to_le_bytes() {
            self.0 ^= u64::from(byte);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn array(&mut self, words: impl ExactSizeIterator<Item = u32>) {
        self.word(words.len() as u32);
        for w in words {
            self.word(w);
        }
    }
}

fn csr_digest(a: &Csr) -> u64 {
    let mut h = Fnv::new();
    h.array(a.rowptr().iter().copied());
    h.array(a.colidx().iter().copied());
    h.array(a.values().iter().map(|v| v.to_bits()));
    h.0
}

/// One setting per code path: Floyd's sparse path (`k·3 < n`) and its
/// dense path (`k·3 ≥ n`), zipf rows whose heavy ranks take the dense
/// path, zipf-both, banded, block-diag with and without a background,
/// row bursts and RMAT.
fn kinds() -> Vec<(&'static str, GenKind)> {
    vec![
        ("uniform-sparse", GenKind::Uniform { density: 0.01 }),
        ("uniform-dense", GenKind::Uniform { density: 0.4 }),
        (
            "zipf-rows",
            GenKind::ZipfRows {
                density: 0.02,
                exponent: 1.1,
            },
        ),
        (
            "zipf-rows-heavy",
            GenKind::ZipfRows {
                density: 0.05,
                exponent: 1.6,
            },
        ),
        (
            "zipf-both",
            GenKind::ZipfBoth {
                density: 0.02,
                exponent: 1.0,
            },
        ),
        (
            "banded",
            GenKind::Banded {
                bandwidth: 5,
                fill: 0.5,
            },
        ),
        (
            "block-diag",
            GenKind::BlockDiag {
                block: 16,
                fill: 0.4,
                background: 0.0,
            },
        ),
        (
            "block-diag-bg",
            GenKind::BlockDiag {
                block: 24,
                fill: 0.3,
                background: 0.01,
            },
        ),
        (
            "row-bursts",
            GenKind::RowBursts {
                density: 0.02,
                burst_len: 16,
            },
        ),
        (
            "rmat",
            GenKind::Rmat {
                a: 0.57,
                b: 0.19,
                c: 0.19,
                edge_factor: 8,
            },
        ),
    ]
}

/// `n = 1000` leaves a 40-bit tail in a 64-bit column bitmap.
const SIZES: [usize; 3] = [64, 512, 1000];
const SEEDS: [u64; 3] = [1, 7, 0x5eed];

#[rustfmt::skip]
const CSR_GOLDEN: &[(&str, usize, u64, u64)] = &[
    ("uniform-sparse", 64, 1, 7167747717475546772),
    ("uniform-sparse", 64, 7, 3621976134056249151),
    ("uniform-sparse", 64, 24301, 14017939864712883708),
    ("uniform-sparse", 512, 1, 13704539529452560362),
    ("uniform-sparse", 512, 7, 169238796647987793),
    ("uniform-sparse", 512, 24301, 11991560490040150391),
    ("uniform-sparse", 1000, 1, 614279792990934613),
    ("uniform-sparse", 1000, 7, 10765275518054705653),
    ("uniform-sparse", 1000, 24301, 4219018993211134608),
    ("uniform-dense", 64, 1, 6241999467346021068),
    ("uniform-dense", 64, 7, 15140601166756553702),
    ("uniform-dense", 64, 24301, 7749567076718205495),
    ("uniform-dense", 512, 1, 15501799059265492508),
    ("uniform-dense", 512, 7, 4287007559251092019),
    ("uniform-dense", 512, 24301, 15368272586239502202),
    ("uniform-dense", 1000, 1, 2613199872289907122),
    ("uniform-dense", 1000, 7, 11937072755673335102),
    ("uniform-dense", 1000, 24301, 5558895567280885064),
    ("zipf-rows", 64, 1, 16860234851555408327),
    ("zipf-rows", 64, 7, 15216361770176073650),
    ("zipf-rows", 64, 24301, 16645452200172870986),
    ("zipf-rows", 512, 1, 8574243033818696645),
    ("zipf-rows", 512, 7, 18195051484511626751),
    ("zipf-rows", 512, 24301, 3129635275193829772),
    ("zipf-rows", 1000, 1, 12945517102225111146),
    ("zipf-rows", 1000, 7, 4659873606540000835),
    ("zipf-rows", 1000, 24301, 3583892527759596657),
    ("zipf-rows-heavy", 64, 1, 10894451665405934567),
    ("zipf-rows-heavy", 64, 7, 14656848256076586721),
    ("zipf-rows-heavy", 64, 24301, 5874946379510510244),
    ("zipf-rows-heavy", 512, 1, 13539494663407504664),
    ("zipf-rows-heavy", 512, 7, 5515067463519436858),
    ("zipf-rows-heavy", 512, 24301, 5790557234896825804),
    ("zipf-rows-heavy", 1000, 1, 13625353799081264885),
    ("zipf-rows-heavy", 1000, 7, 3904679935650131154),
    ("zipf-rows-heavy", 1000, 24301, 2656138763864934556),
    ("zipf-both", 64, 1, 1461574585606355330),
    ("zipf-both", 64, 7, 1340143778463784112),
    ("zipf-both", 64, 24301, 7207683571915216795),
    ("zipf-both", 512, 1, 11579866220451544723),
    ("zipf-both", 512, 7, 4589762427675916002),
    ("zipf-both", 512, 24301, 3418699527839505779),
    ("zipf-both", 1000, 1, 11195902282772350850),
    ("zipf-both", 1000, 7, 1560332542212136044),
    ("zipf-both", 1000, 24301, 10952006993286730130),
    ("banded", 64, 1, 18310731954425263298),
    ("banded", 64, 7, 4506942941134576251),
    ("banded", 64, 24301, 17671577465054533885),
    ("banded", 512, 1, 14066435783801088063),
    ("banded", 512, 7, 18068354616548505487),
    ("banded", 512, 24301, 9387116548140629850),
    ("banded", 1000, 1, 295383889149924757),
    ("banded", 1000, 7, 8059585377342699990),
    ("banded", 1000, 24301, 2721330993128879494),
    ("block-diag", 64, 1, 10656383474958776999),
    ("block-diag", 64, 7, 13586879666070492949),
    ("block-diag", 64, 24301, 1329508540094360855),
    ("block-diag", 512, 1, 7036355726931792804),
    ("block-diag", 512, 7, 10870504633179180233),
    ("block-diag", 512, 24301, 6415238696750435606),
    ("block-diag", 1000, 1, 13726321323953527403),
    ("block-diag", 1000, 7, 6608817439101616350),
    ("block-diag", 1000, 24301, 6695406433708545532),
    ("block-diag-bg", 64, 1, 14344776469195020255),
    ("block-diag-bg", 64, 7, 9607177864301477819),
    ("block-diag-bg", 64, 24301, 13457937014040572103),
    ("block-diag-bg", 512, 1, 12956956346202351284),
    ("block-diag-bg", 512, 7, 17693487285467693620),
    ("block-diag-bg", 512, 24301, 4011308904431440544),
    ("block-diag-bg", 1000, 1, 10490004414344833694),
    ("block-diag-bg", 1000, 7, 3385710105087935076),
    ("block-diag-bg", 1000, 24301, 6333404271631567480),
    ("row-bursts", 64, 1, 9845964013528800542),
    ("row-bursts", 64, 7, 5119162426746448681),
    ("row-bursts", 64, 24301, 9676827687607504887),
    ("row-bursts", 512, 1, 13157057813064094667),
    ("row-bursts", 512, 7, 7589740582416793944),
    ("row-bursts", 512, 24301, 10426217647148977042),
    ("row-bursts", 1000, 1, 15014748186825878044),
    ("row-bursts", 1000, 7, 9727670726806959096),
    ("row-bursts", 1000, 24301, 8950496358579370675),
    ("rmat", 64, 1, 11485059668018943980),
    ("rmat", 64, 7, 11826366159199866176),
    ("rmat", 64, 24301, 8599739111036912188),
    ("rmat", 512, 1, 1038418806520631517),
    ("rmat", 512, 7, 3024788097761660786),
    ("rmat", 512, 24301, 18215724072445672949),
    ("rmat", 1000, 1, 4292035683285397052),
    ("rmat", 1000, 7, 277885693738570554),
    ("rmat", 1000, 24301, 8392089982606871235),
];

#[rustfmt::skip]
const DENSE_GOLDEN: &[(usize, usize, u64, u64)] = &[
    (64, 8, 1, 15539814328831012959),
    (64, 8, 7, 3975347557783963241),
    (64, 8, 24301, 13072094024625253665),
    (512, 32, 1, 13883035163313138611),
    (512, 32, 7, 14394039022876289813),
    (512, 32, 24301, 11886503547378319530),
    (1000, 7, 1, 10611481077449507955),
    (1000, 7, 7, 16637369245267228367),
    (1000, 7, 24301, 7810136999824426695),
];

#[rustfmt::skip]
const KEY_GOLDEN: &[(&str, usize, u64, usize, &str)] = &[
    ("uniform-sparse", 512, 1, 16, "fp-512x512-nnz2615-w16-cc7db24a0eba7f2f"),
    ("uniform-sparse", 1000, 7, 64, "fp-1000x1000-nnz10000-w64-83a34d357d7e3bd7"),
    ("uniform-sparse", 1000, 7, 5, "fp-1000x1000-nnz10000-w5-dfb678b94f8de662"),
    ("uniform-dense", 512, 1, 16, "fp-512x512-nnz104863-w16-fb538c5e5d70986c"),
    ("uniform-dense", 1000, 7, 64, "fp-1000x1000-nnz400000-w64-79e28eae55900bfb"),
    ("uniform-dense", 1000, 7, 5, "fp-1000x1000-nnz400000-w5-3423e8fcc453520c"),
    ("zipf-rows", 512, 1, 16, "fp-512x512-nnz4742-w16-7aa0c03d7068b65f"),
    ("zipf-rows", 1000, 7, 64, "fp-1000x1000-nnz16670-w64-13c3588e95164e29"),
    ("zipf-rows", 1000, 7, 5, "fp-1000x1000-nnz16670-w5-d726e1f881d56fa5"),
    ("zipf-rows-heavy", 512, 1, 16, "fp-512x512-nnz5740-w16-5a5ecaea7dbb287c"),
    ("zipf-rows-heavy", 1000, 7, 64, "fp-1000x1000-nnz17396-w64-685fa128c9bd109c"),
    ("zipf-rows-heavy", 1000, 7, 5, "fp-1000x1000-nnz17396-w5-a019c24af1a6cb99"),
    ("zipf-both", 512, 1, 16, "fp-512x512-nnz4918-w16-ae2224df0c0e8354"),
    ("zipf-both", 1000, 7, 64, "fp-1000x1000-nnz17655-w64-b8067c9415be7edd"),
    ("zipf-both", 1000, 7, 5, "fp-1000x1000-nnz17655-w5-72972f2a08089b56"),
    ("banded", 512, 1, 16, "fp-512x512-nnz2777-w16-964870e0991b87db"),
    ("banded", 1000, 7, 64, "fp-1000x1000-nnz5494-w64-c35dc6bddb09a29d"),
    ("banded", 1000, 7, 5, "fp-1000x1000-nnz5494-w5-3b0d43c055874c20"),
    ("block-diag", 512, 1, 16, "fp-512x512-nnz3276-w16-3825c2594825fc2f"),
    ("block-diag", 1000, 7, 64, "fp-1000x1000-nnz6314-w64-40b4adab5a55b41f"),
    ("block-diag", 1000, 7, 5, "fp-1000x1000-nnz6314-w5-929548e8d491b1ac"),
    ("block-diag-bg", 512, 1, 16, "fp-512x512-nnz6183-w16-0e8b9c2aae84c6d9"),
    ("block-diag-bg", 1000, 7, 64, "fp-1000x1000-nnz17035-w64-2d634abcdb7745ce"),
    ("block-diag-bg", 1000, 7, 5, "fp-1000x1000-nnz17035-w5-813995815efbb4a9"),
    ("row-bursts", 512, 1, 16, "fp-512x512-nnz5200-w16-711ff0363123a15c"),
    ("row-bursts", 1000, 7, 64, "fp-1000x1000-nnz19814-w64-17fd97dab310ff2f"),
    ("row-bursts", 1000, 7, 5, "fp-1000x1000-nnz19814-w5-848c302e188cc4f6"),
    ("rmat", 512, 1, 16, "fp-512x512-nnz3215-w16-7d8bd6fcd0b6dc2f"),
    ("rmat", 1000, 7, 64, "fp-1000x1000-nnz6582-w64-82e13a2d47c83689"),
    ("rmat", 1000, 7, 5, "fp-1000x1000-nnz6582-w5-ed40ee98c3c67ce1"),
];

#[test]
fn generator_output_is_pinned() {
    let mut got = Vec::new();
    for (label, kind) in kinds() {
        for n in SIZES {
            for seed in SEEDS {
                let a = generate(&MatrixDesc::new(label, n, kind.clone(), seed));
                got.push((label, n, seed, csr_digest(&a)));
            }
        }
    }
    for row in &got {
        println!("    {row:?},");
    }
    assert_eq!(got, CSR_GOLDEN);
}

#[test]
fn random_dense_output_is_pinned() {
    let mut got = Vec::new();
    for (nrows, ncols) in [(64, 8), (512, 32), (1000, 7)] {
        for seed in SEEDS {
            let b = random_dense(nrows, ncols, seed);
            let mut h = Fnv::new();
            h.array(b.as_slice().iter().map(|v| v.to_bits()));
            got.push((nrows, ncols, seed, h.0));
        }
    }
    for row in &got {
        println!("    {row:?},");
    }
    assert_eq!(got, DENSE_GOLDEN);
}

#[test]
fn fingerprint_keys_are_pinned() {
    let mut got = Vec::new();
    for (label, kind) in kinds() {
        for (n, seed, tile_w) in [(512, 1, 16), (1000, 7, 64), (1000, 7, 5)] {
            let a = generate(&MatrixDesc::new(label, n, kind.clone(), seed));
            let key = MatrixFingerprint::of(&a, tile_w).key();
            got.push((label, n, seed, tile_w, key));
        }
    }
    for (label, n, seed, tile_w, key) in &got {
        println!("    ({label:?}, {n}, {seed}, {tile_w}, {key:?}),");
    }
    let want: Vec<_> = KEY_GOLDEN
        .iter()
        .map(|&(label, n, seed, w, key)| (label, n, seed, w, key.to_string()))
        .collect();
    assert_eq!(got, want);
}
