"""Golden sha256 digests of default CLI outputs, one per family and command.

The digests pin the bytes of ``sample`` (CSV), ``conditions --samples 10
--seed 3`` and ``catastrophe`` at each family's defaults, the JSON of
``verify --method exact`` and ``--method fd`` on the default grid (less its
``"runtime_ms"`` line, a timing), and the ``sample`` bytes of
``R2_S1S2_MA``'s two other sheets, ``conditions --samples 25 --seed
289607014`` (where ``R2_S1S2_MA`` misses and exits 1), and ``conditions
--pair`` for the README pair and a failing pair off the locked angle, and
``sample --grid`` just before the gradient catastrophe of three families
(where many points end as ``no_convergence``), and ``conditions --samples 10
--seed 3`` of ``RK_TIME_A`` at ``C1 = 2``, off its defaults, so a
change that moves an output byte or an exit code fails here and must say so.  A change that moves bytes
on purpose updates the digests and records why.

The last bits of numpy's transcendental functions depend on the numpy
release and on the SIMD code it dispatches to, so the digests hold only on
the platform they were taken on (below); elsewhere the test skips.
"""

import hashlib
import platform

import numpy as np
import pytest

from riemannwaves import cli
from riemannwaves.catalog import REGISTRY_IDS

# numpy release, machine, and whether numpy dispatches AVX512_SKX code
DIGEST_PLATFORM = ("2.4.6", "x86_64", True)

COMMANDS = {
    "sample": [],
    "conditions": ["--samples", "10", "--seed", "3"],
    "catastrophe": [],
}

DIGESTS = {
    "sample": {
        "R1_E": "d96a0df57f2d0f424a03f8d929230216eed84b41334bfb9439cfc4cedc184a0e",
        "R1_S": "4922e4740cd5f26f85639e465dfd724df378560477be5682413983fd1ef2063b",
        "R2_E1E2": "ece119dc3e2e8eba189d7811d72aa53720c1247af690829085a6bf32d3188b38",
        "R2_E1E2S3": "54c8afdb834cee321bb471d5f23370f99c67dca0a86a6046f19389059890c3a1",
        "R2_E1S2": "a870a13c247245c54658f6542350d7924a0420e6394af70468ec7d9b1b84b909",
        "R2_E1S2S3": "c42dfce56d524ef5f632638c845902423a20778108c410431a9a4720910845e9",
        "R2_S1S2S3": "6cc325c3c330cbc4c61fa54aec8c3be19e9f1421ce86774757892f2f32b55c3c",
        "R2_S1S2_ADD": "e699ce25ddc2508b1f5451e7854c1a8c2adcd875337c9e30b106ee61b753150c",
        "R2_S1S2_MA": "371ee86bd7a916aca4c462e15bd0111b515432fa77fcf5657991aaa52f4ce42a",
        "R3_E1E2E3": "c2240ba6a699c40df94c1cb0dda863986c6165fc38328929f6b3b91ca0c20f32",
        "R3_E1S2S3_v1": "2cbed49cad2ec11333e27d19f6fd67702a0638ee91f563578fbded9658417e88",
        "R3_E1S2S3_v2": "f667592dfe24380963f04162eea17d07c45ba511991d26d9c8f54a36b27e7c2d",
        "RK_TIME_A": "cb1bdd3286199b176a2055a919936f737dd0091cd97f2430e087e6e7e16fb4ae",
    },
    "conditions": {
        "R1_E": "43726b5d265c207000d678b0ec33dd32541f6b0a4ad9e3499e8994ccaa8af579",
        "R1_S": "e65bd1cf9888138e54e70c9058150eb823b4f137ceaac372821f737ea5fa6290",
        "R2_E1E2": "16aefdead06e72a5d6ef2322060c58e4fe0e412248e92b8729b93042a501534c",
        "R2_E1E2S3": "f38cc49b015be0ccf663507aa15cb5fca50ea3f5d2616bae0419caf164ae5b5f",
        "R2_E1S2": "08df760b943bad317a00cbd99eed2b07a7c43b3417c76537a01a8ea9085c89fd",
        "R2_E1S2S3": "59b96279bbcc28bcba3ce21aeeabc58fb6be18a552a5b30558785ee8fe2003c8",
        "R2_S1S2S3": "1de00f57f267f1d940472e141f7cab23f6404583168be0c1db4531f60e481120",
        "R2_S1S2_ADD": "e3eae5f741406ac552594538558da0dc0364786f1e2392b412d8a755c85d86f7",
        "R2_S1S2_MA": "0877885d3355c9fed3766b6aca7349aa57b1775d105f316c25e3283b17d858c2",
        "R3_E1E2E3": "2b90152ef18ef6e01a3fa815390941c731d8efb7318a1e17646d8d1ca135eb32",
        "R3_E1S2S3_v1": "d60bdc993c5dc6b5674d1df53fe209d29c3d650a9b9034f2f36cc738c2ee7641",
        "R3_E1S2S3_v2": "aa1b51c66449245f0c956abef9cbb6624832701f9d985c96e3d1d8d2766cb155",
        "RK_TIME_A": "cb76e1be8ba3a19f7d712a5da54bc41299af80d20abfd73d82198064588cd118",
    },
    "catastrophe": {
        "R1_E": "e3c5d82978110c437ed453e457d7830062903b9c36108bec21a5d9619e8d0e46",
        "R1_S": "258553589f992369b2ab92be65f89c748da1779439c8622fe59f35bff364cc71",
        "R2_E1E2": "0099c41e744c376bce27c361fe6608ea5ac4fc4caa3007a89084828d7c1758f2",
        "R2_E1E2S3": "8b52c17b478b47b0575457839e3344dec57f47f6f325779e0776bbb5c3e11388",
        "R2_E1S2": "5f6a15a06a09ec59fcfa1e72ca0c33e34e6da0d8a7a4f3c2eba7826a05fa6a7f",
        "R2_E1S2S3": "5d211f77feb8927a34ebdb7ce9c79d88cf4140011cd2a52b897cbfeea5de16ef",
        "R2_S1S2S3": "aad6b7cb965b8e563feb858be8182bcb306c21a618ee29f37713668d9de56a71",
        "R2_S1S2_ADD": "69f9b9520cefb8f8a8fe66bcd07ad0e6aebade69de0213b1fb9c39bec0c2ff67",
        "R2_S1S2_MA": "18d349f9550b845f21f189aa5705629ddeb8dfb5ba643440dd2dc7bf759fbf23",
        "R3_E1E2E3": "245725a29c277e9d09acaf4459b4945d1f4b0c60b99e5f6c9d41aad3ddfab698",
        "R3_E1S2S3_v1": "acf2eed37afb2a81369e6b7b83a25a9c43544ed871518ed01d4560d0e9c1b332",
        "R3_E1S2S3_v2": "8927960e4bc5f0f21ed2681e8f9dcd56d78af6bce15482a355b9dc5e1129ca4d",
        "RK_TIME_A": "5bcbe72a07692b83c04bc164ca5b092d73386002116cbe062a39700852d43303",
    },
}


# sample bytes of the non-default sheets of R2_S1S2_MA (--set branch=...)
SHEET_DIGESTS = {
    "minus": "dc3c599510a6faa8ea71f882c2329ff8456d36e4a08ee1adbe4f855f2493bfab",
    "auto": "2cf4a790a5376876f82dc795eff512167db9d291f636ff85939dec431062403f",
}

# conditions --samples 25 --seed 289607014; R2_S1S2_MA fails some rows there
CONDITIONS_SEED = ["--samples", "25", "--seed", "289607014"]
CONDITIONS_MISSES = {"R2_S1S2_MA"}
CONDITIONS_DIGESTS = {
    "R1_E": "541779e463b85b955691fc658ba7bff78caf8aaf05fdad3abad715d788486793",
    "R1_S": "3dc58cfbec53218d4ae6fc8673091cde0e02daa2f753bc0eade5eda0dde58b87",
    "R2_E1E2": "3f7a4fe8d16b27b758d51a423419d26f6f990dc39e4920d249f06de1917784b3",
    "R2_E1E2S3": "4d2fcfc376859aaee247e286380446f16e62b60b738cc72c1e2e3d701b6f443a",
    "R2_E1S2": "cf54097ae0e40e2b9faa55d6c9fe3a982022322ef3dd262375551bbf997c3f33",
    "R2_E1S2S3": "6c41e17212cf3dfbeea58801737272ea8eb16b7b04bd0cf3c76c89d32be06da6",
    "R2_S1S2S3": "2ab319b9b1511c7c290b32763ad3eb876fbcf5d2a16f7b7d094e6b03d015589b",
    "R2_S1S2_ADD": "0c86c4f9a5b41d1c2065ce50a2653c2d2aa3f6e83949eda0128560917cedd8fe",
    "R2_S1S2_MA": "324de2be5a22436a2da28aa6908fcc5be946686279206428a6c053cf1361eb58",
    "R3_E1E2E3": "2ac870e6ceb8154397844a4dc51c7594fe8719397cf6bf12cb079c94263bdd71",
    "R3_E1S2S3_v1": "649277d78de3798c6ee35fe74774487605bcc15feb2b0db0f539dcdd8f543926",
    "R3_E1S2S3_v2": "8a1f1e080c429d2d6a9f3c5e2fcb5d209f4c9b1b32576453fe5ecf2c6d035585",
    "RK_TIME_A": "82459773566faac94828766c87638a59ad1a389396071d5cf96729ff046890eb",
}

# conditions --pair (25 samples): (pair, seed) -> (exit code, digest); the
# README pair sits at the locked angle cos = -1/kappa, the last pair does not
README_PAIR = "1,0,0;-0.333333333333333,0.942809041582063,0"
PAIR_DIGESTS = {
    (README_PAIR, "0"): (0, "5c78fd3b0a1ca59d8d9aca6419f776cca3c98338430fd104fe3162c534bea98d"),
    (README_PAIR, "5"): (0, "3e0ed783faf95edc287aa7afb97386d6ecae463a7e2d5380b6f9e85da98b9f29"),
    ("1,0,0;-0.3,0.95,0", "0"):
        (1, "f7f480b7d1a06169298cadc08f38a71c8ad01222a77c1d8eaf47a7dcd10899a6"),
}

# conditions --samples 10 --seed 3 off the defaults: (family, --set) -> digest.
# RK_TIME_A at C1 = 2 exits 0 with every residual 0.0; the JSON does not print
# the parameters, so its bytes are those of the defaults
SET_CONDITIONS_DIGESTS = {
    ("RK_TIME_A", "C1=2"): "cb76e1be8ba3a19f7d712a5da54bc41299af80d20abfd73d82198064588cd118",
}

# sample --grid just before t* = 1, where |r| reaches 1e5-1e6 and one ulp of r
# exceeds Newton's tolerance: R1_E has 13 no_convergence rows, R2_E1S2S3 93
# and R2_E1S2 107 and 18, each of them Newton's last iterate and its state.
# On NEAR_T3 some R2_E1S2 points wander without repeating while others cycle;
# a row's rounding there depends on the batch it shares, so dropping the
# cycling points early moves the others' bytes (and one status).
NEAR_T1 = "t=0.9999980:0.9999999:20,x1=-1.2:-0.8:5,x2=0:0:1,x3=0:0:1"
NEAR_T2 = "t=0.999990:0.9999999:30,x1=-0.6:-0.4:5,x2=-0.1:0.1:3,x3=0:0:1"
NEAR_T3 = "t=0.99984075:0.99999928:12,x1=-0.1584:0.2416:4,x2=-0.2:0.2:3,x3=0:0:1"
NEAR_CATASTROPHE_DIGESTS = {
    ("R1_E", NEAR_T1): "9a5dbedff68f93567692d210c7abdb53433f2b772ad093fab0ddb2a84ac6e130",
    ("R2_E1S2S3", NEAR_T2): "34e24985adecd068d9b45ebfd150387d1864eb6f373de3e2cdcd25ddd133a09d",
    ("R2_E1S2", NEAR_T2): "88d4507c098295cfffa4683de0e50100caa9f5d8c5b62b501bdecd44568d3391",
    ("R2_E1S2", NEAR_T3): "f216b7cf4493d8084194ed5b3f4078676f0895be6728f2f3a780aa03f3f0727f",
}

# verify JSON on the default grid, the "runtime_ms" line removed
VERIFY_DIGESTS = {
    "exact": {
        "R1_E": "20953eff48bc89e8a99adc8bd41e2faff27bc3e77b1f7d912cdf7e7945089d22",
        "R1_S": "fd1bdef17d8b111f8735c5a4fd5cdc6a2275197ef749d075f94025d75e88305f",
        "R2_E1E2": "ff892061a3c49499fb89b94d3cbcc8b0f1391280175305eb91068fdea1904fee",
        "R2_E1E2S3": "d715fa031f8043be5f2d3eec4e0c02e66fe028543c9b15ee363fa8158baf7d04",
        "R2_E1S2": "3e05838e1b855d7818943049f8d384a5325ca16ccc7cab4547eb033c5f891398",
        "R2_E1S2S3": "b57b8772f3ac4d8d81a4ef7dd3924c53d2c07dc021f0c4f2489261d20a632de4",
        "R2_S1S2S3": "8e7784a7bb840bf91c75af3058b454cb50337c1ad8ec7d697a42623752364647",
        "R2_S1S2_ADD": "932abad3e8d5b4812028e3ef72bc5e5e14e093c066ae359cf89b8becd0b13041",
        "R2_S1S2_MA": "60461074d2afce4620a68712bd60e04d95e090b9b2189ea8f21ee59d57b7183b",
        "R3_E1E2E3": "62f3fc1147d43786cb5ec5afbf00ed8dc69dc665dba178027423a1c8910f9f87",
        "R3_E1S2S3_v1": "62e9ec15e72bdaf35611b68f5236fe98be5d60572def8214b5caa640fd696483",
        "R3_E1S2S3_v2": "5bedc589881be31df09b376497204ce8c55a07145df3a0fa2963c29da5fe08b8",
        "RK_TIME_A": "33f2c5b6ce2d7c034fb3000e72af41ea754ba592e03466751cacaff5eab5ec3a",
    },
    "fd": {
        "R1_E": "e8ede181df8db2c6dd25129ffac37de97956a32b01ae86795cb04ea297f2e0fa",
        "R1_S": "f23a03b50ffd5765da800981e0728570c31fc4cb599943d8b1a5a22ca07dd9d0",
        "R2_E1E2": "1198c1fc23325207c5afb0c748fb5d2284b3a1480559ef9da6aba61ad2a82076",
        "R2_E1E2S3": "69e4031395534c968c1897c2e586053641e4435ae5b9b7124f63367386122f59",
        "R2_E1S2": "f84e857ec086983becb3f1e85143f4bfabe504abcfb885f96b4927637bb90e22",
        "R2_E1S2S3": "fa1f28fe93d44251c9e67c8dfca46b713963cbd15eafe3e7e422641bdad12122",
        "R2_S1S2S3": "52497b80622fd2d6f5b64a169ae654ea264abb9d7d109c35719c68f051e499e4",
        "R2_S1S2_ADD": "3ea90f99d25f6a76c05fd548c5fbc93ffb7cc09bde3095bc4b852ba314ac85bb",
        "R2_S1S2_MA": "241ae7bd7bb624283ae25c309fda1caae3646d8869cfa9f62d07fdaeb55873e3",
        "R3_E1E2E3": "18ac80b79e056c14b9b3a598e8d898b964a285712efdf27f21f81b1923e8d217",
        "R3_E1S2S3_v1": "aaec0b8f1cc4b2e1fccbe8d2301de8eb0ed2eeaa0704b68e71466055dc093d6f",
        "R3_E1S2S3_v2": "bf9e7a21df4f87f1ab234a86c7fe803ada2a2b024a5cadcd1b9628507e7f4e2b",
        "RK_TIME_A": "d959cdd777fdf53ed65851beaa1cc9fdce7bc14f2a6e50ba5d6e218f022485c0",
    },
}


def _platform():
    try:
        from numpy._core._multiarray_umath import __cpu_features__
    except ImportError:
        __cpu_features__ = {}
    return np.__version__, platform.machine(), bool(__cpu_features__.get("AVX512_SKX"))


def test_digests_cover_every_family_and_command():
    assert set(DIGESTS) == set(COMMANDS)
    assert set(VERIFY_DIGESTS) == {"exact", "fd"}
    for table in (*DIGESTS.values(), *VERIFY_DIGESTS.values(), CONDITIONS_DIGESTS):
        assert sorted(table) == sorted(REGISTRY_IDS)


def _output_digest(argv, tmp_path, drop=None, code=0):
    if _platform() != DIGEST_PLATFORM:
        pytest.skip(f"digests taken on {DIGEST_PLATFORM} (numpy, machine, AVX512_SKX); "
                    f"this platform is {_platform()}")
    out = tmp_path / "out.txt"
    assert cli.main([*argv, "--out", str(out)]) == code
    data = out.read_bytes()
    if drop is not None:
        data = b"".join(line for line in data.splitlines(keepends=True) if drop not in line)
    return hashlib.sha256(data).hexdigest()


@pytest.mark.parametrize("command", sorted(COMMANDS))
@pytest.mark.parametrize("fid", REGISTRY_IDS)
def test_default_output_digest(fid, command, tmp_path):
    digest = _output_digest([command, "--family", fid, *COMMANDS[command]], tmp_path)
    assert digest == DIGESTS[command][fid]


@pytest.mark.parametrize("sheet", sorted(SHEET_DIGESTS))
def test_sheet_sample_digest(sheet, tmp_path):
    digest = _output_digest(["sample", "--family", "R2_S1S2_MA", "--set", f"branch={sheet}"],
                            tmp_path)
    assert digest == SHEET_DIGESTS[sheet]


@pytest.mark.parametrize("method", sorted(VERIFY_DIGESTS))
@pytest.mark.parametrize("fid", REGISTRY_IDS)
def test_verify_output_digest(fid, method, tmp_path):
    digest = _output_digest(["verify", "--family", fid, "--method", method], tmp_path,
                            drop=b'"runtime_ms"')
    assert digest == VERIFY_DIGESTS[method][fid]


@pytest.mark.parametrize("fid", REGISTRY_IDS)
def test_conditions_seed_digest(fid, tmp_path):
    code = 1 if fid in CONDITIONS_MISSES else 0
    digest = _output_digest(["conditions", "--family", fid, *CONDITIONS_SEED], tmp_path,
                            code=code)
    assert digest == CONDITIONS_DIGESTS[fid]


@pytest.mark.parametrize("pair, seed", sorted(PAIR_DIGESTS))
def test_conditions_pair_digest(pair, seed, tmp_path):
    code, expected = PAIR_DIGESTS[pair, seed]
    digest = _output_digest(["conditions", f"--pair={pair}", "--seed", seed], tmp_path,
                            code=code)
    assert digest == expected


@pytest.mark.parametrize("fid, setting", sorted(SET_CONDITIONS_DIGESTS))
def test_conditions_off_default_digest(fid, setting, tmp_path):
    digest = _output_digest(["conditions", "--family", fid, "--set", setting,
                             *COMMANDS["conditions"]], tmp_path)
    assert digest == SET_CONDITIONS_DIGESTS[fid, setting]


@pytest.mark.parametrize("fid, grid", sorted(NEAR_CATASTROPHE_DIGESTS))
def test_near_catastrophe_sample_digest(fid, grid, tmp_path):
    digest = _output_digest(["sample", "--family", fid, "--grid", grid], tmp_path)
    assert digest == NEAR_CATASTROPHE_DIGESTS[fid, grid]
