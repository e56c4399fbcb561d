"""Pinned CLI stdout: SHA-256 digests and exit codes, one per command and format.

Any byte change in stdout fails here; re-record a digest only when the
output is meant to change.
"""

import hashlib
import json
import shlex
from pathlib import Path

import pytest

from cli_runner import invoke
from sytkit.identities import IDENTITIES

# command -> format -> (exit code, sha256 of stdout)
GOLDEN = {
    'count y --k 3 --n 0..4': {
        'table': (0, '8b5b7325f7b27da30bd1abeec493d816de48b35681818604a75dcbd00eb3ac11'),
        'json': (0, 'f1ea1fe3bd987caa690421b44c28249b20f5d84d5f49b5592d4e39857628f71d'),
        'csv': (0, 'cf762685c74969fbea9e36b906c518cb6688f6683e50daddaf654be8c875e4fb'),
    },
    'count x --k 2 --n 6': {
        'table': (0, '160e462089c7a806bbb09a0cc703d33168162795dab62654ff132c25ce410e4a'),
        'json': (0, '17bb2b0843442e62ec321a118764b2ea776c1de06d2cea6685bf87292330d89f'),
        'csv': (0, 'd336f834ff1e8df6d56ef1e520415edb2fb8ef4efd62d6697741ab80c442ed5f'),
    },
    'verify wilf --k 2 --n 1..5': {
        'table': (0, '25dd7a5ad0a02351be21121bbcb6c39e166e75aba71fc6c04554995de882fb44'),
        'json': (0, '31e02e025d067d2818766685583a9aa1e6fd167a0cc14165521ab6002baa7bf8'),
        'csv': (0, '479846c9ce8e911897fee9a7d21501c1d202b341c6edd56d70f2b948582c6908'),
    },
    'verify naive-failure --k 2 --n 3': {
        'table': (0, '3acecd06d1904a64de1606fcd9b062dd5973713be2572559b7e60823b2d5e2a5'),
        'json': (0, '63b8c41ab1c87616234e319f627d123c09dd33a48880d948abac895650135b9e'),
        'csv': (0, 'a5adeff55e63ede3249f60de74eb325ce33ef2b2225944c034a481aa6d774eb9'),
    },
    'rsk --cycles "(31)(62)(5)"': {
        'table': (0, 'f2436424bdb628f7af92a749bc98d30afe2288c71230d52e93c11cf3ff422b35'),
        'json': (0, '2700b68a72dbf68b2b22c289b58d618bbf3ccbe1bc81a7891e5ffc2c7783d2fe'),
        'csv': (0, '3210502b0a828035ecdcfb2f9bbebe05b07ef3fced5280a943334c34e91c359a'),
    },
    '--trace bijection f --n 4 --p "(31)(62)(5)" --q "(7)(84)"': {
        'table': (0, '7b76e6a013ccef8df1019607e0c644149552fd59035e3f19d9cdeb1da9cbccef'),
        'json': (0, 'fe53496f154dce41c90045d18714bd382a8a38ab7cd89dacd13586e13a088b3b'),
        'csv': (0, '5c2d5daeabea35b5f82a2673de84e91656757252b054ef81b41753e42fc93bc4'),
    },
    'bijection g --n 2 --chosen "3 1"': {
        'table': (0, '4a48bc4a26297e9c08ad7ebc6310b3d114c68bf1e6ba3122ee002ac3a1f3670b'),
        'json': (0, 'c15e69e82669a4bcc3ed29b2a13a08bc680fad8eb6590c7d610e83832323bad5'),
        'csv': (0, '8de9b90074cfda0712edab4873cb7ca51d06d2e10f1086475ebb8a2c53adcbab'),
    },
    'bijection g-inverse --red "(23)" --blue "(14)"': {
        'table': (0, '63de34441a04510d6ffc1e5c892a95db7680d287128f8d38423e4b3eeef33a6e'),
        'json': (0, '5286e852aac082fdee9e31efff6eabd1f21dd4bd2e2618c6a86ba560a06acf72'),
        'csv': (0, 'c2d54a68370a55206636570e962854f9d4b87c345470ab8b3065d5fc3d776486'),
    },
    'audit --n 2 --k 3': {
        'table': (0, '53af2594c05209c97353f3dfa26e06f3844ec710c323564b9644b2fd0d9e27a3'),
        'json': (0, '5870d4fbdf79e16d6ec8498351cb9d9a0ff2afd4db3bccae46d4a7c09dee3289'),
        'csv': (0, 'a4e92cfe58a5139d7755b5e63c3574a03e41bb65f8828b1a57791897d6246d3b'),
    },
    '--trace bijection g --n 2 --chosen "3 1"': {
        'table': (0, '1740518a2a891f19369948318ff0c2c5c7b7c2985cc094d7dd91fe8cbd0e30ab'),
        'json': (0, 'b5066843fe2d42c979c81c8339172fdd94a221a78f7eddbfd8677926af1ce666'),
        'csv': (0, 'e23e23b3a5b1ae4870cf9a2d1020d00768a181348e4feb208cbe78159fada6e6'),
    },
    'count u --k 2 --n 0..5': {
        'table': (0, '295e26a98cd1936cc2ad4f0d67c632af8e9c7f4a43f1e93d2927d117d663cc90'),
        'json': (0, '8b67cf263d58892652f23ab7aa671669b79300893098dc321e00b4aab71567d6'),
        'csv': (0, 'dd8b3ba6e8500635dd9789d62b4fddb357c79888b032d90c4c8f697490b4003a'),
    },
    'count y_unbounded --n 0..6': {
        'table': (0, 'eecaf6882c052d8150650a92e4ec172d7af1469ce9070169f5c58a0b27cebff3'),
        'json': (0, '7c093753953ac20bce1a14d45dec13e4722546142d3a11a0a69392fbad5943d7'),
        'csv': (0, '6d95f375f8ff61a67997ec3654e17d2ef9ee1169015771fd968f137e3cc791ae'),
    },
    'count x_unbounded --n 0..6': {
        'table': (0, '027cdeb5528dd040834a31d596997fe8803b934a767622eda4428ee91cb7f2bb'),
        'json': (0, '38c0857ae856a484bc09da345dd68550eac144aee3892ea1a8fc135bb0a7b96c'),
        'csv': (0, 'c10730434c899fabdefa9832a12c71e932f0bb8f26ff2f5c282cf4850a839570'),
    },
    'count catalan --n 0..6': {
        'table': (0, '74c3b61f9fdd2704ee063afb1ab08b244746edb6b98fdca8c2da0a129671dacc'),
        'json': (0, '571911ffc7f5747ad8341a285a9a622eac265ac2c58be6eb1935965742989fab'),
        'csv': (0, '59e2f3984c0a1487968f58ecdf3d2886e0022c2c2aa26161e66c8e707cbf795e'),
    },
    'verify unrestricted --n 1..3': {
        'table': (0, 'f2702e23c54b7aab19e4488e9950a30611efdb0e47d5c9e73c52720d8f85e831'),
        'json': (0, '73b1c2e3dcac5997dc50ccfe8b0b0ce7952ea7a93a1b5d7ad39b9d50a9924476'),
        'csv': (0, 'bab704a39926d17151b37cc4dcc30ec2f461758782392be6fb62349d48b54c8a'),
    },
    # a large record: 7,381 terms with big integers, 1.25 MB of JSON, written in many pieces
    'verify unrestricted --n 1..60': {
        'table': (0, 'ba4cbabbabc33a49f9f18ba43aca78a664d4ac53b94bbf56c9bc19be7b250f60'),
        'json': (0, '94df0a1209a95eb5fc91db07ae97dea747fbd23735b3dd3b7fd754f516b05db7'),
        'csv': (0, 'ef1e865d1989ab5548fea3d3bfdba37d19d7972e3659c9edf4993cf98d8db758'),
    },
    'verify fpf-pairs --n 1..3': {
        'table': (0, '637991458e6675046dcfe24ad2ed68e32147c1df96abfade97dbdad4ef164548'),
        'json': (0, 'f9a8abd3d2952be0503b4c7e70242f237de1c7b1bb2d6e66f9d587236efe241b'),
        'csv': (0, 'af739c099fe4eaf45ba88532914944df379791c400e4402751c469fe15eab0dc'),
    },
    'verify odd --k 3 --n 1..3': {
        'table': (0, '1bd3f3b662bafdd08ea669cc49308eeae063065a5f3c956207fb2ee87bd9bf71'),
        'json': (0, 'a1147d5ebdabb85209b84c6ef26dc7d589ba2d0a9689e933495b2d0f62655914'),
        'csv': (0, '83102f60bd99656c667b6d2f7d607c24b2b670579260d4b276657bfecf5d1388'),
    },
    'verify corollary-k3 --n 1..3': {
        'table': (0, '51f7f58e1fa026d82672694eda3b064b4c6c4f3a8ccd298e256aa7624e686385'),
        'json': (0, '19d6ef9ca1e0ee34061de6ceab524a36bbd5b9e5926270f1530e105d2f6666c7'),
        'csv': (0, '267a91d32e8855f5ce82fb562d8b4a51c43ae5bce5f9ccc6a8b2ee69c6383b48'),
    },
    'verify a005568 --n 0..3': {
        'table': (0, '36876cf9ebd9841618abff837441e8e34210e37de005ecf59b9ad21fa17d9213'),
        'json': (0, '72f3ae63ec801f0d939dcf441739598b9528bd3b3831ba998f6eee287a59dbd3'),
        'csv': (0, '94ff428029bf01cab6e8fe5ddcbe26e21aa3bd24624ff4b9ec8530b856ab02da'),
    },
    'rsk --word "2 1 4 3"': {
        'table': (0, '8d7d2cfb7e9f57113069f40c83d42be23234ebbb25c440343789e4a69ae3cab9'),
        'json': (0, 'bc305a73a3f164a6d1a0e98dc7f9a34ddbf5d0d094eccc9c8a72e1f8bd2b750f'),
        'csv': (0, 'fb4c399259d171330e919bbd5ad5c1c7ef566edffda016003ae179231d7c1b8f'),
    },
    'audit --n 2': {
        'table': (0, '59c8e6c3023ef87d39ae0261b32272908eb8f1c1d56ed8088c6d0008f05ef58b'),
        'json': (0, '894438053f761a81b1c200eb874ddea7d8fc9c866fa22418d0f482a49c1f0846'),
        'csv': (0, '1df88f7f3d1dc17c3e93d8150064b63613cdbbb1250b0169ea3c5cc4a85f79d1'),
    },
    'audit --n 3': {
        'table': (0, '6618fa5db066120532c1b7609dff9ce1ca43f551abd348591663e23e9aea6734'),
        'json': (0, '1307bae367459b5b649d5d060058d814a472338b41660e2dc8c24af2ffd96c3a'),
        'csv': (0, '99edbaa795e7748f31e90134de65bc432fe16945b26c27799557ecbb75478b6f'),
    },
    'audit --n 3 --k 1': {
        'table': (0, 'c6bf9a3fb0ae09bee4d2676100b078c32f54ec8f10dde7d727e8f3c907b8590b'),
        'json': (0, '5017af0cc3a0583bcd44ab22352c099f54423b09779fa2073e763dccdb3b3485'),
        'csv': (0, '0e6e764933facfbb6ae13de6951f09c6ce6e00ea249faf658c26730029fe17ff'),
    },
    'audit --n 3 --k 3': {
        'table': (0, 'b2a02a371c016af37cbb7da24181db2a79c3fa289aaaa7f0437a442df2dd6747'),
        'json': (0, '15b2e8870fbefb1b05d7e0cc4e37d5cea56abdc2a9d2c69fb04fc967acb23d16'),
        'csv': (0, 'c16327db77a5931685cc87d4aafd9cd748d1e17b0855eb1e99e900a73728aacc'),
    },
    'bijection f --n 2 --p "(1)(3)" --q "(24)"': {
        'table': (0, '35b7690d73541bc7218dccb06406dc80ff9f11bc6e13ff27d9cad1a06894989c'),
        'json': (0, '55a8ce9a90a18032d8b3a719a96f3b21eb56a6963f911823916c88e6f86e93ee'),
        'csv': (0, 'c785b97342aef4f08e6112c00dbbc6ab129c771091a24df40e71b21db5894d3a'),
    },
    '--trace bijection g --chosen "5 2 6"': {
        'table': (0, '6cf71a2a790b5061a594e7ec453c9acbfe8c7811c6e6c6b7f5c711feff7909b6'),
        'json': (0, '0be01f5119dbf67137f1c12c61dea689bfd03e51528b9cbc8246aab3d2e6453a'),
        'csv': (0, 'aada4391c6f1bcd11b610024dcac2a5bee0b2e2a6ab38f02883b86508e9cd352'),
    },
    'bijection g-inverse --red "(13)" --blue "(24)(56)"': {
        'table': (0, '293b5543fd25189dbf1923454b4d432ebeab0613cba0a75462ef1d8990d1ac50'),
        'json': (0, 'c4213b883e396a33031d35ff657d3219e59433614e2193ab373340377b4d6ae9'),
        'csv': (0, 'eca102bbed3be283a0410c6336ce406a456982bad783ddc9b80ed3ae4937834b'),
    },
    'rsk --cycles "(12,3)(7)(10,15)"': {
        'table': (0, 'b5bc94897f3c3486c3e2b07c9243d8597c3bf8e85ebc2dd071c2d466ed40eea9'),
        'json': (0, 'f34292ab903f18f3d35ec70730cc25c9ae4da8075e074a87b290dad1d372fd9f'),
        'csv': (0, '7ece0b79b405af026cb5b217866516581b252b0300b986df31a8f5334b463c67'),
    },
}


@pytest.mark.parametrize("fmt", ["table", "json", "csv"])
@pytest.mark.parametrize("command", sorted(GOLDEN))
def test_stdout_digest_and_exit_code(command, fmt):
    result = invoke("--format", fmt, *shlex.split(command))
    digest = hashlib.sha256(result.stdout.encode()).hexdigest()
    assert (result.exit_code, digest) == GOLDEN[command][fmt]


@pytest.mark.parametrize("name, identity_id", [
    ("wilf", "wilf_even"),
    ("unrestricted", "unrestricted"),
    ("fpf-pairs", "fpf_pairs"),
    ("odd", "odd_k"),
    ("corollary-k3", "corollary_k3"),
    ("a005568", "a005568"),
    ("naive-failure", "naive_failure"),
])
def test_verify_reports_identity_id(name, identity_id):
    takes_k = IDENTITIES[name][1]
    k = ["--k", "3" if name == "odd" else "2"] if takes_k else []
    result = invoke("--format", "json", "verify", name, *k, "--n", "3")
    assert result.exit_code == 0
    assert [v["identity"] for v in json.loads(result.stdout)["verdicts"]] == [identity_id]


def test_verify_choices_are_the_identity_table():
    result = invoke("verify", "no-such-identity", "--n", "3")
    assert (result.exit_code, result.stdout) == (2, "")
    choices = result.stderr.rstrip("\n").split("; expected one of ")[1].split(", ")
    assert sorted(choices) == sorted(IDENTITIES)


def test_readme_cli_examples_are_pinned():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    block = readme.split("## CLI", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    commands = [
        line.split("#", 1)[0].strip().removeprefix("sytkit ")
        for line in block.splitlines()
        if line.startswith("sytkit ")
    ]
    assert commands
    assert [c for c in commands if c not in GOLDEN] == []
