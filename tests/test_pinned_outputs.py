"""Pinned outputs of the CAM path and of the quality-matrix runs.

`gen-trace` must write the same CAM stacks and the same manifest values, and
`camsched simulate` the same metrics bytes on the CAM workloads' configs, as
the per-map generator and scorer they were recorded with. On quality-matrix
traces, `simulate` and `oracle` must print what the full enumeration of every
pool's capacity did. A faster path may change how the work is done, never
these bytes.
"""

import hashlib
import json

import numpy as np
import pytest

from camsched import cli, fileio, sim
from camsched.config import DEFAULT_ALGORITHMS, parse_config


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def gen_trace(tmp_path, doc):
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps(doc), encoding="ascii")
    out = tmp_path / "trace"
    assert cli.main(["gen-trace", "--config", str(cfg), "--out", str(out)]) == 0
    return cfg, out


# ------------------------------------------------------------------ gen-trace

# seeds x CAM shapes; 4x4 at smoothness 1.0 keeps the scene at full size, the
# others upsample a coarser grid (1x1 and 3x5 from a single coarse cell)
GEN_SHAPES = {
    "1x1": {"cam_rows": 1, "cam_cols": 1},
    "3x5": {"cam_rows": 3, "cam_cols": 5},
    "4x4-s1": {"cam_rows": 4, "cam_cols": 4, "smoothness": 1.0},
    "16x16": {"cam_rows": 16, "cam_cols": 16},
    "64x64": {"cam_rows": 64, "cam_cols": 64},
}
GEN_SPECS = {
    f"seed{seed}-{shape}": {"devices": 3, "seed": seed, "synth": dict(synth, horizon=3)}
    for seed in (1, 3, 7777, 4242)
    for shape, synth in GEN_SHAPES.items()
}
GEN_SPECS["m1"] = {"devices": 1, "seed": 5, "synth": {"cam_rows": 6, "cam_cols": 7, "horizon": 4}}
GEN_SPECS["k1"] = {"devices": 2, "seed": 6, "algorithms": [DEFAULT_ALGORITHMS[0]],
                   "synth": {"cam_rows": 5, "cam_cols": 3, "horizon": 4}}

# spec -> (sha256 of each cams/devMM.npy, sha256 of the parsed manifest)
GEN_PINS = {
    "k1": (
        {
            "dev00.npy": "a8b0fa824fcb5f63cf4a501f8755e3d97150605e7658781eb028cc1da1ac60c4",
            "dev01.npy": "84e96f0c94aa70ca2d4d77364c2277582bac2dd2d6924857e1464368685bf3dc",
        },
        "0a4e0cc1c4f138a7701b73026a722ba30f57910d125e4447fcd72df2a828807b",
    ),
    "m1": (
        {
            "dev00.npy": "96d8c1af65c2f6ddf734c41ab808f8fb94e3a57d26438fb1929bb8dd8b2172c3",
        },
        "009cf1d18d3ca9b27709b43094c5cacd93c40a33e4c68ed6f254759f90825df7",
    ),
    "seed1-16x16": (
        {
            "dev00.npy": "640a4bc99462593acf0695495a7e88ddfcd7113c27f083834aa881e93ee3dbcd",
            "dev01.npy": "5e9f7c62b261d3422a616df2cecfbffadbc89480f4c9a2ef20eb68b233a07187",
            "dev02.npy": "e22821d24e1cf050732abc0e415220098f414dc1cfe3f887332f8305bccb0a8c",
        },
        "ec2566490d8f6bc15b2ac85bba6c97ccd0a2a95eb518fc9639fd5008f2fb95af",
    ),
    "seed1-1x1": (
        {
            "dev00.npy": "2a44e2b5817b4fc67a99d02800f107e5fcb9c921677fdd78d7e104c4e16bec0b",
            "dev01.npy": "cb5ce1282615ac301f8055484c843558a13fd7eaae099593508366132f75c37d",
            "dev02.npy": "1690056c4060dd11b4204f3f384604e6fa03f2087d69e42d7ca964e8597bd705",
        },
        "9e13445884855c6c4edde28fa3b6175e13977cb347d1a4f836c66510aeb7df66",
    ),
    "seed1-3x5": (
        {
            "dev00.npy": "f5af9d97d842bafbef965f09fdcac9993e05b02ff7b28dd938fa957d7134c762",
            "dev01.npy": "15cf7dd7c398fd01b13e67cbcb734eaf36ba6d856efa0910c27143d9abdfe5ae",
            "dev02.npy": "c43b0eb2e9039fd59d2779eaa898b3d335c97ad61eb9e38681aaef7519fea2ec",
        },
        "d7d3833ba125464cbd796b9cca941998de611f0d9354ee8748db453d3d68c518",
    ),
    "seed1-4x4-s1": (
        {
            "dev00.npy": "04b4061899fbfba66a543c3c0402c25c172dc8fff8e3b47eff918004b5061535",
            "dev01.npy": "34c64d24bd4a4cb14071e131154ef27f75cf450cc082a16c05b2ee3560c7d75c",
            "dev02.npy": "9401e3e752758d98b5f09de6a74bd12b9157950c9dd31cc5ac97d30f2e19cf99",
        },
        "6f2449e2f8b6db2e1f9c0581ffbbff4e8e55911b5ad3a97d117927c133ac12ab",
    ),
    "seed1-64x64": (
        {
            "dev00.npy": "4c4735b22cbff4568d8a0a79547ddd11fdcd7f18a8201333cf8630c03893cd2f",
            "dev01.npy": "49d5e77c57d1d64519bd7a0779796dfa2d55b27c7840c6ce89f78305568d6298",
            "dev02.npy": "6567bd8e939cc9fa4f4ffa31d32a9146d03624b0c3c9d3db3f8cd9b0f3a36468",
        },
        "c72c7b7c31eb841a4d240f7bcf783bb1cc99b1591f252262ff1c981cb99edf82",
    ),
    "seed3-16x16": (
        {
            "dev00.npy": "989d674a1fa63e0036a646e699ad749fad3885e9e018bbefb35191ade2e17f95",
            "dev01.npy": "436d0c1d5c6f68188c2788040419c515ec559c15ca07bc7b468845ae214e9796",
            "dev02.npy": "caee7d09febafc6e18c6952463c2b3b5fcca27a8fe46e8d6f449c061846281f5",
        },
        "ce244ecb17833ae104f5e6a611e0e6fdf7be87669c8ecafe06b9863a3799d42d",
    ),
    "seed3-1x1": (
        {
            "dev00.npy": "518ea0403ba6d40c2b82591867a68ce2402929fb3296c6768210c2849f5ad6ef",
            "dev01.npy": "19ec29a8aa296958ab6f2b1fa65887a95aec2259b04e5e1bec2bd1ea7e94526f",
            "dev02.npy": "87711eb0d819ea8af37ee15e3579135f93af1ef5ff5436b97e1e1176a3810789",
        },
        "573d7aa54a644ea6743d890a74533de5dc79aa11491859b748ee03ba4cc361cf",
    ),
    "seed3-3x5": (
        {
            "dev00.npy": "ce5d820c7d7d0186b61f60b287a54ccc2f6b85623e0d2939dea823e36905dbe6",
            "dev01.npy": "e11e1c325b2b878f42b872d1b52027962fd76df33480920e5955636e4e7bb9af",
            "dev02.npy": "ba8df5cbc5e91272e70ef745d36851acf5f7104e5e6210ec83deea2d196339d1",
        },
        "3a5c44b0d1b8643281daef0c7f1726cb35b7f095949ce597ae32efea5ac6ca58",
    ),
    "seed3-4x4-s1": (
        {
            "dev00.npy": "78bf1376d95ce0932ec7c63cdeffaa310880c64ec120500a9f524a3cef6efb3c",
            "dev01.npy": "613488a790bb5c21cd17c24f5d799c61bea02b2df204783a4e10aa2828d4c55d",
            "dev02.npy": "4b88abd3b01da12ec9d5e4eea619f88a90dac1c65624dd09ad0ba8eca647c085",
        },
        "7c9cbc541d5b0617f2d90f49bf715aad34ff0abbaeb69fa0ecf606d6c87929c3",
    ),
    "seed3-64x64": (
        {
            "dev00.npy": "5a35aad915931638a231759ea70b9e04a6d79e791e4b2dbb06bc33d6b801689c",
            "dev01.npy": "0c2a3b029795f44c1f9842e0a3eb2a17e40c2629f4f166cbaa6ba3ce2ad4a775",
            "dev02.npy": "46314fe53bbf988a3237656c41111c90359c3a42dfe5c8f116be883fee6140c7",
        },
        "3453816b8fb2f6c5b7e42118c24a1358aa29f8b4b5b2387ee21eef2425f7109b",
    ),
    "seed4242-16x16": (
        {
            "dev00.npy": "1838cd83704b35f47c6ff9fbfdda7ef1a1348b675456a741474015713360fd0b",
            "dev01.npy": "c586bbafb29c396d62221cb1b558ebda9303c2bf7e7bf7ede6d6643dead7f3b5",
            "dev02.npy": "f75b2330780de5a53387a53e18633a69758b6001543dbfdbdbb9a23af5fbb5d0",
        },
        "471861e4d3d02f617401cca7af376eed8ff45b9609fdaec989949fa411df4d03",
    ),
    "seed4242-1x1": (
        {
            "dev00.npy": "f0b4706c26c5046111d8c4da3a378dd1543611e0deaf5384149edfa17ed1075d",
            "dev01.npy": "8ec026e2d76a38e5a58fe6f812c4d18e96e4750c799268c1a8e70f1ea39d8b99",
            "dev02.npy": "704dfc39b91c869a7749e583495feffda169545808fba1af7be9268c9cd562ea",
        },
        "487601aafb722eedd613f05d6defac81dd75d529d31e322cce0b1da46103785b",
    ),
    "seed4242-3x5": (
        {
            "dev00.npy": "6e8b6ddec1fb5c493f179b71935207274534cd40207b6139e93e34f0531f5e3c",
            "dev01.npy": "8e8b0c1c77cfc1087e7e1491116cb97ad6e6f2efed67e295efe73cd14a59f970",
            "dev02.npy": "16349b034b1333d3e974a153e60e5bd2c289d3251fc27790d8ac822883257653",
        },
        "244baf2956dd5f91e8c912646f5ad9b49c308c2b48a369d588f13212d61e502c",
    ),
    "seed4242-4x4-s1": (
        {
            "dev00.npy": "bc2f84cb0c3ff32f8b6b8f992786f66dc63f507952af2253344cd267567eec9a",
            "dev01.npy": "ee1648af1fc5fde9c8ec2037e20f4ba1fe498609ec15113faf0cb80e1ffc2dc2",
            "dev02.npy": "96bff57aab8e6484091931c50f6e26ea391a89a9b488c3efe597300677e9b421",
        },
        "95582ea40e98884e0b248a023803da0c3bcb4a8e2f679da3547fed8a59267143",
    ),
    "seed4242-64x64": (
        {
            "dev00.npy": "cb3c5e074a8ebb1288a618e40ce502e10a3f6d267c3b23e5b9a07077d83cf986",
            "dev01.npy": "140c3cb28231bdd0ff39255bd21ce03d3556d5ac4b26e7461893c29d126b38de",
            "dev02.npy": "c21e1deb73432b8504b89e816067ab864a8515b90683b84cfaeb42fa97947400",
        },
        "3efebcebfa7337444d04595812581ac4fc2f35d1c7a260ba7ebfeeef518066ef",
    ),
    "seed7777-16x16": (
        {
            "dev00.npy": "e715a76501d87e2b648cbd3237cc0c3d5a553b0e45f1dd207dd26eb0e5894526",
            "dev01.npy": "9ab9a5f8dc685b25e9d7909602f91af610a8a34492139651e8aaaf4ccf7bbbc0",
            "dev02.npy": "dcb2c952936b7886f60e7f8e1ae0b4302df158fff0ed66d7ff27e5e1940ea0e3",
        },
        "33202eed9991750ed5c7991df6e31ba88005f90dd86315dc09e572f519fae658",
    ),
    "seed7777-1x1": (
        {
            "dev00.npy": "c3a582782de8b79e365d3b40f0be157c005c14f162172a075604b24b9704eced",
            "dev01.npy": "a4f6a024303b6b1baf24fc4fab33d672833fe7bf27401881a2d28e8ecface873",
            "dev02.npy": "dbc0097e2b6cde2122c22b4f23510bd022ba573fa3b2c896e2b0921fb1bf8163",
        },
        "9e2ddba4006336792a58dcc4d3a419595d1e8c8692e33bb521bf43578a3f4195",
    ),
    "seed7777-3x5": (
        {
            "dev00.npy": "d02a4ebadc36aee65ea50014d658baff26f69c0c38640b2ac9f46657b62b6c12",
            "dev01.npy": "5853c3051fb2c2ca2c8a2259e3550b798d21586d62955f14b8ab6885acb90e44",
            "dev02.npy": "6e8536e2edc93723540d95c68874418ac5aae87494602565e0020e04aa630ab3",
        },
        "ad3d370e14f72b4a7dfe62df40630c3ec943d76599dc4a7c1d2fd6b982cea73a",
    ),
    "seed7777-4x4-s1": (
        {
            "dev00.npy": "704f57124ab3fd0afc8f1325135d470864b17b2b1395d442eedd92e8a01e2acd",
            "dev01.npy": "a179f0b392cdfc0998bc9010b748b695e26c4faa825be20f1351297e699dacea",
            "dev02.npy": "56e1cb4e621738668fbb698418443cc2155813064c8c2cb2d841d52b7611d142",
        },
        "b278166218ae379316195e14d43cff3a8b74bb0e870ab17da0d7c0317c23c56d",
    ),
    "seed7777-64x64": (
        {
            "dev00.npy": "339debc05e02b16a68b1045d2dabb693f7e795f66967e10abbc81857a7256c61",
            "dev01.npy": "20cdd538b17cc35ab42a614a0d60c2b15f7c14ab61968a59e29ff01382da2958",
            "dev02.npy": "942b810c931446adfd781ed24b4008ec64a127238d2b804e465bec4f1f37ee9b",
        },
        "30407fcba92e99adf3aacfa4e6595cd77f8640125cfe021a3f9c747924e053db",
    ),
}


@pytest.mark.parametrize("name", sorted(GEN_SPECS))
def test_gen_trace_output_is_pinned(tmp_path, name):
    _, out = gen_trace(tmp_path, GEN_SPECS[name])
    stacks = {f.name: sha256(f.read_bytes()) for f in sorted((out / "cams").iterdir())}
    # the parsed values, so the pin does not depend on the manifest's layout
    manifest = json.loads((out / "trace.json").read_text(encoding="ascii"))
    values = sha256(json.dumps(manifest, sort_keys=True).encode("ascii"))
    assert (stacks, values) == GEN_PINS[name]


# ------------------------------------------------------------ simulate metrics

# the configs of the benchmark's two CAM workloads
CAM_WORKLOADS = {
    "paper-m10": ({"devices": 10, "scheduler": "ga", "ga": {"seed": 1}},
                  ("default", "ga", "capacity", "none")),
    "cam-assess": ({"devices": 4, "scheduler": "none", "ga": {"seed": 1},
                    "synth": {"cam_rows": 64, "cam_cols": 64, "horizon": 10}},
                   ("default", "ga", "capacity", "none", "oracle")),
}

# workload/seed/scheduler -> sha256 of the metrics file
METRICS_PINS = {
    "cam-assess/3/default": "956d7b4325af9bcae40020d5522129cb71aa5018e52acd38335792e1c0c32e3c",
    "cam-assess/3/ga": "eb0ef6a5a18267231f5a98cdc7578d2c329efb15923f5c583e24a5800f29c5ef",
    "cam-assess/3/capacity": "b1999ed7ed2cae0e70c41af7688e229fa7cf7fc91baacd4ff561c118e967c2ab",
    "cam-assess/3/none": "956d7b4325af9bcae40020d5522129cb71aa5018e52acd38335792e1c0c32e3c",
    "cam-assess/3/oracle": "eb0ef6a5a18267231f5a98cdc7578d2c329efb15923f5c583e24a5800f29c5ef",
    "cam-assess/7777/default": "7d5d465790481172ff507185c9ac76217450c24ec6e6caaed32f1c17c0cc4bc3",
    "cam-assess/7777/ga": "997efe8bba74c4a4dd376268b89da747ccea7fa97b03a8216aa9f4cc9b6a41f5",
    "cam-assess/7777/capacity": "65e29c53d1069f204992bac25f2e0d634e52c6d2fd2988562c876932595f6e82",
    "cam-assess/7777/none": "7d5d465790481172ff507185c9ac76217450c24ec6e6caaed32f1c17c0cc4bc3",
    "cam-assess/7777/oracle": "997efe8bba74c4a4dd376268b89da747ccea7fa97b03a8216aa9f4cc9b6a41f5",
    "paper-m10/3/default": "b0896717205eb721a121708a185fa2d03e27e57fb04345e6899768ddf9010015",
    "paper-m10/3/ga": "b0896717205eb721a121708a185fa2d03e27e57fb04345e6899768ddf9010015",
    "paper-m10/3/capacity": "86c00966ad798afc7fcdf8911f433585b5523e56d0d2c667aec844b2287dba86",
    "paper-m10/3/none": "4240b20ec405e157fd0361ea949087b3fd8c4419eee7b6ba995b1b3713de5541",
    "paper-m10/7777/default": "87667aaf0b840d52355553f5cc8bf61d8a93acaf582e483e30a06f41e9debe62",
    "paper-m10/7777/ga": "87667aaf0b840d52355553f5cc8bf61d8a93acaf582e483e30a06f41e9debe62",
    "paper-m10/7777/capacity": "8086f3896a455d765876677b651cb8d06094e2135d3650b24d1eb50fc3d22aba",
    "paper-m10/7777/none": "734a1ba0087bd7312b1ac0bc8d4d88830020af3acb2fcab9c6b65c5ced2ecc85",
}


@pytest.mark.parametrize("workload", sorted(CAM_WORKLOADS))
@pytest.mark.parametrize("seed", [3, 7777])
def test_simulate_metrics_are_pinned(tmp_path, workload, seed):
    doc, schedulers = CAM_WORKLOADS[workload]
    cfg, out = gen_trace(tmp_path, dict(doc, seed=seed))
    got = {}
    for scheduler in schedulers:
        metrics = tmp_path / f"{scheduler}.jsonl"
        argv = ["simulate", "--config", str(cfg), "--trace", str(out / "trace.json"),
                "--out", str(metrics)]
        if scheduler != "default":
            argv += ["--scheduler", scheduler]
        assert cli.main(argv) == 0
        got[f"{workload}/{seed}/{scheduler}"] = sha256(metrics.read_bytes())
    assert got == {key: METRICS_PINS[key] for key in got}


# ----------------------------------------------------- quality-matrix traces

def quality_trace(cfg, seed):
    """The benchmark's quality-matrix trace, with no CAMs: each device draws a
    scene difficulty per slot, and algorithm k scores in proportion to its
    brightness offset, with +/-10% noise."""
    rng = np.random.default_rng([seed, 0x5157])
    m, n, k = cfg.num_devices, len(cfg.servers), len(cfg.algorithms)
    offsets = np.asarray(cfg.synth.offsets, dtype=np.float64)
    ratio = (offsets / offsets.max())[None, :]
    slots = []
    for _ in range(cfg.synth.horizon):
        quality = np.zeros((m, k + 1))
        scene = rng.uniform(1.0, 3.0, size=(m, 1))
        quality[:, 1:] = scene * ratio * rng.uniform(0.9, 1.1, size=(m, k))
        slots.append(sim.SlotData(
            datasize_bits=rng.uniform(*cfg.synth.datasize_bits, size=m),
            bandwidth_bps=rng.uniform(*cfg.synth.bandwidth_bps, size=(m, n)),
            quality=quality,
        ))
    return sim.Trace(m, n, k, tuple(slots))


def quality_run(tmp_path, doc, seed):
    """Config file and saved quality trace of a workload config at `seed`."""
    doc = dict(doc, seed=seed, ga={"seed": 1})
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps(doc, sort_keys=True), encoding="ascii")
    trace = quality_trace(parse_config(cfg.read_text(encoding="ascii")), seed)
    return cfg, fileio.save_trace(trace, str(tmp_path / "trace"))


# the configs of the benchmark's two quality-matrix workloads; on oracle-m4 no
# pool can overfill, so its oracle never enumerates
QUALITY_WORKLOADS = {
    "oracle-m4": ({"devices": 4, "scheduler": "oracle", "synth": {"horizon": 20}},
                  ("default", "ga", "capacity", "none", "oracle")),
    "fleet-m300": ({"devices": 300, "scheduler": "ga", "synth": {"horizon": 5}},
                   ("default", "ga", "capacity", "none")),
}

QUALITY_METRICS_PINS = {
    "oracle-m4/3/default": "eb965317c4176c85a95d8580299b0fd40a3511a2ab16ca988e60e646c6e1152e",
    "oracle-m4/3/ga": "eb965317c4176c85a95d8580299b0fd40a3511a2ab16ca988e60e646c6e1152e",
    "oracle-m4/3/capacity": "5fa6f2ae8dbc25140f5a8132add0204bf4de00dc507b13726497599b6d0c259f",
    "oracle-m4/3/none": "65415ff42c9f7f8b3a394edfdddd26170d89e822e1a6f0144d7deede9f33eccd",
    "oracle-m4/3/oracle": "eb965317c4176c85a95d8580299b0fd40a3511a2ab16ca988e60e646c6e1152e",
    "oracle-m4/7777/default": "2db9522561771a1442634173ebc8c15d6a211d8d75436d859746532aaf15eed3",
    "oracle-m4/7777/ga": "2db9522561771a1442634173ebc8c15d6a211d8d75436d859746532aaf15eed3",
    "oracle-m4/7777/capacity": "98e462aed9eb67874dec30046917b816ebda6970652a0eebc51d6fe76ae7e12c",
    "oracle-m4/7777/none": "b60a5a4a0c95a3a640e5704e43c98f8d91c24c93937bc716f4824ad52d7ed045",
    "oracle-m4/7777/oracle": "2db9522561771a1442634173ebc8c15d6a211d8d75436d859746532aaf15eed3",
    "fleet-m300/3/default": "6a260b0a8270ea063b7c36bd895590cfe61f5fbf3d3b5f17af4940b1f4b787f2",
    "fleet-m300/3/ga": "6a260b0a8270ea063b7c36bd895590cfe61f5fbf3d3b5f17af4940b1f4b787f2",
    "fleet-m300/3/capacity": "8e48ff1d23615a4f7fb8bf7652453d18180ff6bdf6ae6956340313441c2caf16",
    "fleet-m300/3/none": "bd201b0f6d9210b4ead1e57d21b513926067d143aecc880aaec3818d74e1ea50",
    "fleet-m300/7777/default": "f891be2d166280234c313ff06aa66b0716b5acf2c286c3d3f2788c802c714acf",
    "fleet-m300/7777/ga": "f891be2d166280234c313ff06aa66b0716b5acf2c286c3d3f2788c802c714acf",
    "fleet-m300/7777/capacity": "fda3094cc3e9d814659e108903d42eaa71d81735743af52df365a8cd26399b4a",
    "fleet-m300/7777/none": "d5bb47348e349f278f00de703bd7cfd5f581fde94c0b4d2ba404516ff6d783f8",
}


@pytest.mark.parametrize("workload", sorted(QUALITY_WORKLOADS))
@pytest.mark.parametrize("seed", [3, 7777])
def test_quality_trace_metrics_are_pinned(tmp_path, workload, seed):
    doc, schedulers = QUALITY_WORKLOADS[workload]
    cfg, manifest = quality_run(tmp_path, doc, seed)
    got = {}
    for scheduler in schedulers:
        metrics = tmp_path / f"{scheduler}.jsonl"
        argv = ["simulate", "--config", str(cfg), "--trace", manifest, "--out", str(metrics)]
        if scheduler != "default":
            argv += ["--scheduler", scheduler]
        assert cli.main(argv) == 0
        got[f"{workload}/{seed}/{scheduler}"] = sha256(metrics.read_bytes())
    assert got == {key: QUALITY_METRICS_PINS[key] for key in got}


# slot -> sha256 of the `camsched oracle --slot` record, oracle-m4 at seed 3
ORACLE_RECORD_PINS = {
    0: "b3f4548ba6c931c0029348918118b68af19de1cdc1c292ab5858b109a7ece6c9",
    9: "f20572a79ff1d72c45504cfbdc9b30d34a1b354eec55d8b629f735196351096f",
    19: "d1ecb42abbd7aae3dde3b84760a3149649d016330a8a33b128d230fba2d98045",
}


@pytest.mark.parametrize("slot", sorted(ORACLE_RECORD_PINS))
def test_oracle_record_is_pinned(tmp_path, slot):
    cfg, manifest = quality_run(tmp_path, QUALITY_WORKLOADS["oracle-m4"][0], 3)
    out = tmp_path / "oracle.jsonl"
    assert cli.main(["oracle", "--config", str(cfg), "--trace", manifest,
                     "--slot", str(slot), "--out", str(out)]) == 0
    assert sha256(out.read_bytes()) == ORACLE_RECORD_PINS[slot]


def test_oracle_limit_holds_where_no_pool_can_overfill(tmp_path, capsys):
    # 20**4 decisions; the slot is solved without enumerating, yet the limit
    # still counts the full space
    cfg, manifest = quality_run(tmp_path, QUALITY_WORKLOADS["oracle-m4"][0], 3)
    argv = ["oracle", "--config", str(cfg), "--trace", manifest, "--slot", "0"]
    assert cli.main(argv + ["--oracle-limit", "160000"]) == 0
    assert json.loads(capsys.readouterr().out)["enumerated"] == 160000
    assert cli.main(argv + ["--oracle-limit", "159999"]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1, err
    assert "159999" in err
