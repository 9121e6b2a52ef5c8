"""Golden CLI output: the exit code and the sha256 of stdout and of stderr
for each argv.

The table pins what the CLI prints byte for byte, over every subcommand in
each output format, config files in both syntaxes, seeded sharding and each
replayed terminal state. stderr is pinned too: a row that exits 0 must leave
it empty, and each failing row carries the digest of its error text, with the
config directory written as "{dir}" and argparse's usage wrapped at 80
columns. Change a digest only for an output change that is intended and
recorded in CHANGES.md.
"""

import hashlib
import io
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from overhang.cli import main

INI_CONFIG = """[ledger]
position = 1148000
reference_price = 80000

[scenario]
name = custom
epsilon = 0.5
quality = mixed
horizon = 8
"""

# INI_CONFIG's ledger alone: a sweep takes no [scenario] section.
LEDGER_CONFIG = """[ledger]
position = 1148000
reference_price = 80000
"""

JSON_CONFIG = """{
  "ledger": {"position": 900000, "reference_price": 95000},
  "scenario": {"name": "json-run", "epsilon": 0.9, "quality": "disciplined-otc", "horizon": 12},
  "run": {"volume": 18e9}
}
"""

BAD_KEY_CONFIG = "[ledger]\nbogus_key = 1\n"

# A 1,000-cell sweep: 20 ε by 25 fractional horizons, several of them on each
# side of the disciplined-OTC participation step, which falls between 11.125
# and 11.25 years at the default ledger and volume.
WIDE_EPSILONS = ",".join(f"{0.3 + 0.06 * i:.2f}" for i in range(20))
WIDE_HORIZONS = ("1.25,1.75,2.5,3.75,4.5,5.25,6.125,7.5,8.75,9.5,10.25,10.75,11.125,"
                 "11.25,11.5,11.875,12.5,13.75,15.5,18.25,20.5,24.75,30.5,40.25,50.75")
WIDE_SWEEP = ('scenario', 'sweep', '--epsilons', WIDE_EPSILONS, '--horizons', WIDE_HORIZONS)

# (argv, exit code, sha256 of stdout[, sha256 of stderr]); "{dir}" is the
# directory holding the config files above. Only a failing row writes stderr,
# so only a failing row pins its digest; the others pin it empty.
GOLDEN = [
    (('impact',), 0,
     "e333327a5100473f1230f4ad4481e5f758dab955a1b41ce5559228dd627daccf"),
    (('impact', '--json'), 0,
     "008782b95458b5f2fc5ff8cce29743e41a3f91b8013861226d6869f6c9bb58cb"),
    (('impact', '--csv'), 0,
     "cf131f1c2e587f9223ee6529f150ed51b96347990d885332e3425583939fa4c4"),
    (('impact', '--markdown'), 0,
     "3983fb060a2acc30993e81d40110c93901b0b6c980117f37b50eee11f8742ecb"),
    (('impact', '--table'), 0,
     "474ec8fbdaf975de5cb8ee12f6ddd6f5ae0b0b3f190dd08a560612128a9f52b2"),
    (('impact', '--table', '--json'), 0,
     "177452f08d94972714ccc5a2d92bf29766d3ccf3cd3d37376aefd42d49674e0b"),
    (('impact', '--table', '--csv'), 0,
     "1af3727fc20cf14b042665afa13893ee3e8a995db132b49ac74defcf1b167557"),
    (('impact', '--table', '--markdown'), 0,
     "acd5808b1fe1f7ab1a1234e41bcb8ee55f83ea522440a37e7655eb31849ede9c"),
    (('impact', '--table', '--share', '0.05', '--quality', 'public-venue', '--participation', '0.004'), 0,
     "463aa769e3c9c10da3493084b00fff1b094f21956dbbcf7ad1c6eedd52161fae"),
    (('impact', '--table', '--share', '0.05', '--quality', 'public-venue', '--participation', '0.004', '--json'), 0,
     "2711536f493c49ed12e5b9bb5ee1fbccf77d092f9f6265c44caa47e9e2c91716"),
    (('impact', '--table', '--share', '0.05', '--quality', 'public-venue', '--participation', '0.004', '--csv'), 0,
     "80b429b22eef6093fa31f040af2b6ba8935716edde5fc89faa388b500d09d4fd"),
    (('impact', '--table', '--share', '0.05', '--quality', 'public-venue', '--participation', '0.004', '--markdown'), 0,
     "24bbe2fa2ac8e798a3965645e0624f58767b811653afc719f15f81b36b91a8ae"),
    (('impact', '--share', '0', '--epsilon', '0.7'), 0,
     "e68850f8754a70a577d2deaf13e717ad4417f6901edee527e42cefb0f3dc06c4"),
    (('impact', '--share', '0', '--epsilon', '0.7', '--json'), 0,
     "127f9bba7348da25f73f2468d742ba01a8950cfdf9786a176fc72db796f3bb14"),
    (('impact', '--share', '0', '--epsilon', '0.7', '--csv'), 0,
     "fae09ccac766dbb20ff2e58479b86fb6d734245d03bc24f31d2bc390a1c72efe"),
    (('impact', '--share', '0', '--epsilon', '0.7', '--markdown'), 0,
     "64683a524289d3dcd3c120706656995e1d69706ee8a1be7c77dd8747872093ba"),
    (('scenario', 'A'), 0,
     "cbca3cc11821134a0dd7d195b437e14855f3509ca63443473648a337ec5949b8"),
    (('scenario', 'A', '--json'), 0,
     "5c6d70ea382bd66415471433e2ffa48b7d0f7098fb094ef33a529e3d25463fbd"),
    (('scenario', 'A', '--csv'), 0,
     "5f2f07f968d3e9ac2040e5bebd8b5543693c7c7483153a70fb9521660f99441d"),
    (('scenario', 'A', '--markdown'), 0,
     "363bcd176b99d51f1ea0cefe121265cc17ef39204fe95f4f222af9584edce81e"),
    (('scenario', 'B'), 0,
     "574dab7bde0310b2c3166968f7b38bd50579f5ac198be6d734faa55725700e3d"),
    (('scenario', 'B', '--json'), 0,
     "74fb91d835c78120eb40a1c1d5f65e51aa4ada8530345f6d5dc0b39875c98663"),
    (('scenario', 'B', '--csv'), 0,
     "dc0d77e244edaae8b903dfcb9d6a921e3f14195eeb2988a7d9464df3f3050ce8"),
    (('scenario', 'B', '--markdown'), 0,
     "67d3eab70e66ea24d7e2b9f169c2c1ea61533970201d95229c12bd8fc8f793db"),
    (('scenario', 'C', '--nominal'), 0,
     "64479fedc127db6558a8c6d19b641de4c94d66c337ee19f4857ac374c6543f59"),
    (('scenario', 'C', '--nominal', '--json'), 0,
     "c108861e841ed450899531864c563967cca4f113f3edad7437e508d9822dd2ca"),
    (('scenario', 'C', '--nominal', '--csv'), 0,
     "f6735812618580130aa3b904dab5654495167949e2f2a3b5c5dc2b77660948f1"),
    (('scenario', 'C', '--nominal', '--markdown'), 0,
     "bedd7d46c494679a3dd651efc26cd8fea78844e2cc5ee5428ff3cde59bc29b28"),
    (('scenario', 'B', '--volume', '20e9'), 0,
     "9ffaf8e3ae643f88502c91a28dc09233a08a0dfcdce2fd762a38f1a0482fcc60"),
    (('scenario', 'B', '--volume', '20e9', '--json'), 0,
     "359874ceb00cb48bd877b49cbb46a63c0f952ca9f5d15bb0737afa58e647f548"),
    (('scenario', 'B', '--volume', '20e9', '--csv'), 0,
     "dd17968b4a733a2605906f46a3d67184d11bea9811cb751146a30c0eb2fb49fc"),
    (('scenario', 'B', '--volume', '20e9', '--markdown'), 0,
     "4af9a3e4a49a16c70da36d84542256f560407f28e6ead61acd20c3c773ff2d03"),
    (('scenario', 'sweep'), 0,
     "e3f856003058db651c3ef8c482b82218bf48188f9f4606c4bf0e76d43fbfcad4"),
    (('scenario', 'sweep', '--json'), 0,
     "401c610e596d1e400bf560015dfde01b76726158f974d22009bbaaa68f5d54f6"),
    (('scenario', 'sweep', '--csv'), 0,
     "409dab0f133186abdd1f520ca5d7464a6258acfe97b5640e7e3740b80517bd42"),
    (('scenario', 'sweep', '--markdown'), 0,
     "a068026f25d73370cb343328010dd95bbf14dc3ba96f4f47a95f59ce6239b4a5"),
    (('scenario', 'sweep', '--epsilons', '0.5,1.0', '--horizons', '5,10'), 0,
     "7544f3036462687d10b35220f64b296ecaf411671e2414fed23b2bc7c250c3fe"),
    (('scenario', 'sweep', '--epsilons', '0.5,1.0', '--horizons', '5,10', '--json'), 0,
     "1493a6cdf4034fa438bff4d426304601567c42068f118a8feea05010d7440aa5"),
    (('scenario', 'sweep', '--epsilons', '0.5,1.0', '--horizons', '5,10', '--csv'), 0,
     "8d6273de0fb193827d6ab6bb86c14bfaaf375a7734cf44de908dc6804b1c3a2f"),
    (('scenario', 'sweep', '--epsilons', '0.5,1.0', '--horizons', '5,10', '--markdown'), 0,
     "38b6abd3ee13a1afad4313f441618e2756794adfb8996ebb488071b28fa06005"),
    (('scenario', 'sweep', '--epsilons', '0.2,2.5', '--allow-out-of-range'), 0,
     "593f414c21e32f52eb57b22b23a913d4673523bc36a563cda61dacae1c6ebfd5"),
    (('scenario', 'sweep', '--epsilons', '0.2,2.5', '--allow-out-of-range', '--json'), 0,
     "b08cd96d68b2a7d193eecfacd0b213d30cb8d2f894aaaeda549902ee5716ae6b"),
    (('scenario', 'sweep', '--epsilons', '0.2,2.5', '--allow-out-of-range', '--csv'), 0,
     "2d949b5b93094dc7a439c3e1c5e059cda0de5595d16dc4ab5f3025a5df81cf60"),
    (('scenario', 'sweep', '--epsilons', '0.2,2.5', '--allow-out-of-range', '--markdown'), 0,
     "42388ebc4c426429513da37f118f7a5cac04eab43bcd1ac452aa722493b8dbcc"),
    (WIDE_SWEEP, 0,
     "33bde036c9d4f2bbdaf805e86752d6edc2900342ca5943dea772c6713adf3a97"),
    ((*WIDE_SWEEP, '--json'), 0,
     "bfe7c4f9b44de8e677e9e619504ff0d14aa176842b176077fcc80953e5d1e19c"),
    ((*WIDE_SWEEP, '--csv'), 0,
     "430eb37d1c9d749202d3ae2ebe50355745e0a007337f1c4e4724d39b03d9719a"),
    ((*WIDE_SWEEP, '--markdown'), 0,
     "3de6bbe846c8451ca0c302097abc93bb522a716722198a3389eed3f517cd2552"),
    (('scenario', '--config', '{dir}/run.ini'), 0,
     "413aa923b91659ecf1f3ab7384673da72fd502367ab045e8f929608a3028c9a7"),
    (('scenario', '--config', '{dir}/run.ini', '--json'), 0,
     "68a24ca8216809bc932b40973c927279e757dcbcb484f337cda4f15ac37399fe"),
    (('scenario', '--config', '{dir}/run.ini', '--csv'), 0,
     "fac08fec036051e99e3cb835c4440e2f11b62d050c5f1d30003439168bbce75b"),
    (('scenario', '--config', '{dir}/run.ini', '--markdown'), 0,
     "b404cad5bc2ae16a7146a5a1539b018d74fe1471766eba3b7247dd24273a1a65"),
    (('scenario', '--config', '{dir}/run.json'), 0,
     "c9f865bf996e40c64629cf95e2e50a813c739419eca92e2cab7631c78c045d92"),
    (('scenario', '--config', '{dir}/run.json', '--json'), 0,
     "2e103dc40219cdd8324b941152ff2940c27e57b0eb1e57e1c3e06f2cdf11c7b6"),
    (('scenario', '--config', '{dir}/run.json', '--csv'), 0,
     "3e60aadfb17b04f79201731d34b0a663843511487e06a9b9ff72f45bb16cdea1"),
    (('scenario', '--config', '{dir}/run.json', '--markdown'), 0,
     "d37aa75302d5414128104ad41536c7efaa3b8ddc91c815444d4422188886267b"),
    (('schedule',), 0,
     "655d4c869887825f3e04adaea8eac8e2a48d6f079f9dfe365d50621ac1b447f3"),
    (('schedule', '--json'), 0,
     "636973817c7aa5bc61092b79d2d0bbdb95c6aec02eba8d6ae75bc6ecdbd8aa64"),
    (('schedule', '--csv'), 0,
     "7bba4500d900f2a0869c2801c91b4939ce3e88734895f074d9d2a1a8920218a8"),
    (('schedule', '--markdown'), 0,
     "70352b091819df3b7cdcf6de420b3fc9e9a1647cafd507a69041e277af8d0fa2"),
    (('schedule', '--horizon', '10', '--tranches-per-year', '1'), 0,
     "2a8bb7ca780878a23b7b52713e274a2f59e6704b86ef7647aff67baba33629ec"),
    (('schedule', '--horizon', '10', '--tranches-per-year', '1', '--json'), 0,
     "93c0411c8797b6fb45f12db9663c3bf7e9b0e09497316aade4fb0f023b1fd4a1"),
    (('schedule', '--horizon', '10', '--tranches-per-year', '1', '--csv'), 0,
     "ae10db98a83429d69ba92cdebab88a90f2f16950b742b4f1d0da9ded319cb75d"),
    (('schedule', '--horizon', '10', '--tranches-per-year', '1', '--markdown'), 0,
     "abbecc1f01f3aed2af8725c4f322d203e1e1dc5508e2e274d8a595b0731acc24"),
    (('schedule', '--horizon', '4', '--tranches-per-year', '4', '--start', '100'), 0,
     "06e9be6c4f8ee123e060f0f18d765eb4162a57c01861775b4545848de7f314e7"),
    (('schedule', '--horizon', '4', '--tranches-per-year', '4', '--start', '100', '--json'), 0,
     "1f3d6e6ea8bdb87f768a3e9b1a558c49fec2b50649b6ccae8c811c5ba1406b43"),
    (('schedule', '--horizon', '4', '--tranches-per-year', '4', '--start', '100', '--csv'), 0,
     "9259a8035c108d09a5c98c07e63e31bb6fe78a6726e46a9337f8514ac4007945"),
    (('schedule', '--horizon', '4', '--tranches-per-year', '4', '--start', '100', '--markdown'), 0,
     "a20db36f7cd0b5388bbb07857706ded26ab6aab4ea39d16a54ce1a12fc563b23"),
    # 182.5-day spacing: the odd tranches' unlock epochs fall on half-day ties
    (('schedule', '--horizon', '3', '--tranches-per-year', '2', '--start', '7', '--json'), 0,
     "f8ceb4b679420d424aaec9d5e2e37bb3de75f04d1be017b75c075bebd4ae2d83"),
    (('schedule', '--tranches-per-year', '365', '--horizon', '1', '--start', '3', '--csv'), 0,
     "7f48dd4d92788cc2a754591b4880068c6e452b1df2145870eeb91e2a9001c51b"),
    (('frontier',), 0,
     "2bcdaf83e07f251fb7425f22c56263151f82e5c2ffb3e0adbe5a7babbf00a09a"),
    (('frontier', '--json'), 0,
     "d6b3111d2613403d22e42b1863848175b6525303eddb0a0be4617adc5aaaabba"),
    (('frontier', '--csv'), 0,
     "e62117b55ec7dd78d25f53d26a80450cb444b8eb4cf8ddb6fb321fd24a6462c1"),
    (('frontier', '--markdown'), 0,
     "d3f65d41a2e7f21d063956c2db9ebde12b80c0796eeeb7506450db086ecb0679"),
    (('frontier', '--lambdas', '1e-6'), 0,
     "6c0f9496d122fce36eedf1b4f806ceace77aafe94291b41878bfd09e6cf7e696"),
    (('frontier', '--lambdas', '1e-6', '--json'), 0,
     "45932acbbc3f84f197f2dbd440504bcb94b6753edbbf65e46cc6d2d014d455e2"),
    (('frontier', '--lambdas', '1e-6', '--csv'), 0,
     "b77c198f6c89d3630c63acd61615ee93c5483a69d9fea5f384eace0f3b87cf1c"),
    (('frontier', '--lambdas', '1e-6', '--markdown'), 0,
     "08edd5e396887e1476d375b2733561bc4b3c471d426292d0d8b23efd9478d32c"),
    (('frontier', '--lambdas', '0,1e-6,1e-5', '--periods', '20'), 0,
     "028719ca9986ed711e6500cc7d5616ff2cf9f221a3fb94a9ff5fc717c88646a2"),
    (('frontier', '--lambdas', '0,1e-6,1e-5', '--periods', '20', '--json'), 0,
     "70212b1fdc9b077eaf9fb6dd3e58b290d61ec1178b08e6a2bfb57155c415be33"),
    (('frontier', '--lambdas', '0,1e-6,1e-5', '--periods', '20', '--csv'), 0,
     "fdc5914272c83bb2f55dc8190cf2daa773494c3a00899d77f2ad15f61d9bc024"),
    (('frontier', '--lambdas', '0,1e-6,1e-5', '--periods', '20', '--markdown'), 0,
     "3267a33a4fa445ca433fc20f99b34a88a5d1c3556025908b50740c779ff66256"),
    # exp(−κτj) underflows: the holdings tail runs through subnormals to zeros
    (('frontier', '--periods', '200', '--lambdas', '1e-2', '--sigma', '1600'), 0,
     "20906fa106a8a54438f510d874b9ccdccbfeef2b802b3a34ea08376772ffc38c"),
    (('frontier', '--periods', '200', '--lambdas', '1e-2', '--sigma', '1600', '--json'), 0,
     "a6ed26ab63c32c907edecf5041c94f45afe0d96bc396d0242f5fe40a1f5492e2"),
    (('frontier', '--periods', '200', '--lambdas', '1e-8,1e-5,1e-2', '--sigma', '1600', '--json'), 0,
     "09381a08a5f225de8f3ee271bd7fdbf9779b22cd22735be875add818dec8ba8e"),
    # σ²τ overflows to inf, and the path sells everything at once: its variance is 0
    (('frontier', '--sigma', '1e300', '--periods', '2', '--lambdas', '1e6', '--json'), 0,
     "b75db383ffa34c22289442eb7b35aac61efd4642d6270ffe64bd2ba7b92387fc"),
    # σ² alone is subnormal, but the variance is a normal float, to the last bit
    (('frontier', '--total', '1e10', '--sigma', '1.041180171578257e-161', '--json'), 0,
     "df3293f5b2e06b842eb046a049d39b749047f1f0152063f57abcee2a3cfa0a5a"),
    # σ² alone overflows, but the variance, 2.85e300, is a float
    (('frontier', '--total', '1e-10', '--sigma', '1e160', '--lambdas', '0', '--json'), 0,
     "a7ed32714601ae3e41c137349a1efe66f3ea0fe9ba044866c17f523eb3e7ab70"),
    # σ² alone overflows and τ·Σx² alone underflows, but the variance, 2.85, is a float
    (('frontier', '--total', '1e-150', '--sigma', '1e200', '--tau', '1e-100', '--lambdas', '0',
      '--json'), 0, "2ec2468b2b7c63d9612f0bf2da3bdafb1952f9ab4348244800239d5cedeb60ae"),
    # σ² alone underflows and τ·Σx² alone overflows, but the variance, 2.85e-80, is a float
    (('frontier', '--tau', '1e300', '--gamma', '0', '--sigma', '1e-200', '--total', '1e10',
      '--lambdas', '0', '--json'), 0,
     "64b8917167e3cbe1155998ce3e9d7eb996865a412cc200b7eb860ea3494347af"),
    # στ = 1e400 is past the float range, but λ = 0 is zero stiffness: the linear
    # path, whose variance, 2.85e300, is a float
    (('frontier', '--total', '1e-150', '--sigma', '1e200', '--tau', '1e200', '--gamma', '0',
      '--lambdas', '0', '--json'), 0,
     "b393f153ff64b238ca71ec12762e42befac0bbefe58bf62af0ec66989517afae"),
    # (στ)² alone is subnormal, but the stiffness λ(στ)²/η̃ is a normal float, to the last bit
    (('frontier', '--sigma', '1e-156', '--lambdas', '1e308', '--periods', '200', '--json'), 0,
     "736b3e754969370acd51f9b6002d0f30e4b3e1862fb1b607925eff2f2a645db0"),
    # X² alone underflows, but the expected cost, 1e-101, is a float
    (('frontier', '--total', '1e-200', '--tau', '1e-300', '--gamma', '0', '--lambdas', '0,1e-9',
      '--json'), 0, "03c5f4b622a1d7592f8351b860336784bf960e33304eb2e8ee1d6775d0823edb"),
    # X² alone overflows, but the expected cost, 1e99, is a float
    (('frontier', '--total', '1e200', '--tau', '1e300', '--gamma', '0', '--sigma', '0',
      '--lambdas', '0', '--json'), 0,
     "f316a6a34db1dba351d8e49185aa4c9430371004b45a930c8014b4fb1a318427"),
    # the expected cost and the variance are past the float range
    (('frontier', '--total', '1e200'), 4,
     "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
     "f4458dd7322dcaf26f2660f03ac104f0de814921f97a2f354a1893531763b0c3"),
    (('decision-map',), 0,
     "142cf685663ed2561bb663b179d5506e1aaeec1eb590e6c4326a2d04255f586d"),
    (('decision-map', '--json'), 0,
     "1c725a3bb09a217e08dd8e510466fd422d8b516a8e219a59d505401f858d969b"),
    (('decision-map', '--csv'), 0,
     "5196d3b9abb8f34f284cb3471b44cb365c0042833acf777ee408906456adee1e"),
    (('decision-map', '--markdown'), 0,
     "a1cc354da8d164d860bb1cce601f344d7a124c95239181cf76f9d836fdc8695e"),
    (('decision-map', '--retention-variant'), 0,
     "c4acdb891fadd9348c0e96e1ca40c357eed244aeec3940db25a60e20c93b7465"),
    (('decision-map', '--retention-variant', '--json'), 0,
     "7403aa7ab23a1dbc42dba71b83d30cb341d33c10118ef66fdc0d8ae9ad8ffb1f"),
    (('decision-map', '--retention-variant', '--csv'), 0,
     "695de1ef5b32018a03b3a0e3e64b6266d0bba3871d2dd23663e1380389004a44"),
    (('decision-map', '--retention-variant', '--markdown'), 0,
     "e2bb12c8ff3757b55b96aa70eb4c1f0f30728826819c4acf836d78251278dde7"),
    (('decision-map', '--bear-bound', '-0.1'), 0,
     "138be1a5e3a9b7c91139ac1c6a081ac3955b48e7c21e1900ace4d34036101860"),
    (('decision-map', '--bear-bound', '-0.1', '--json'), 0,
     "efd86030e08e8db0ae719acbb74912c00a635f0d8a47db829df76c5e1a70cac4"),
    (('decision-map', '--bear-bound', '-0.1', '--csv'), 0,
     "d6be43d0612bd34eaf311a373df9c72259b3034945c3bbe20c49ae3e83ba513b"),
    (('decision-map', '--bear-bound', '-0.1', '--markdown'), 0,
     "f583fd57e97125f6ba108e7f711c5b2abedeaeb94e8916ce67bcc3d0e8282d4f"),
    (('anchors',), 0,
     "efecb0fc5500f928005120da60fd6f05bcd36f2e0c5d0669b9ce81e33b35c576"),
    (('anchors', '--json'), 0,
     "f95f5156d8f800bf7859d243bb63163a6a7d3a6e8b201181155f56ddaae90cd4"),
    (('anchors', '--csv'), 0,
     "f318d769d9cdf3245c8d9fd9b0ebe4dd982d215203076556fb962317f3a0219d"),
    (('anchors', '--markdown'), 0,
     "d34ba8abf847689db39de34a4d29d5e3ffbd4384b64953a9a91d00e26254961a"),
    (('--seed', '5', 'scenario', 'B'), 0,
     "454336caeddbfec1fade6f87485c5b61f8ead06b71bd9d5ec873d72048d4925f"),
    (('--seed', '5', 'decision-map', '--json'), 0,
     "1c725a3bb09a217e08dd8e510466fd422d8b516a8e219a59d505401f858d969b"),
    (('scenario', 'B', '--emit-config'), 0,
     "4a3b0a27dfe854d37d4aeab59efb502b6ad5ac91ffd019b30b0040c717ebdbb9"),
    (('scenario', '--config', '{dir}/run.ini', '--emit-config'), 0,
     "fab13a79c16b65c056b059bc5a90da4c6ae54d3bf9337798fddd0cc5068cc158"),
    (('scenario', '--config', '{dir}/run.json', '--emit-config'), 0,
     "4109f821bbfaed2db3ce769c750735eaad8a07436d27b76ffacecfe1bc21fc2e"),
    (('scenario', 'sweep', '--config', '{dir}/run.ini', '--json'), 2,
     "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
     "20c36f25a5adda7d9abd61644afc8d1eae28138fc26f49e9ccd6743f34f3864e"),
    (('scenario', 'sweep', '--config', '{dir}/ledger.ini', '--json'), 0,
     "401c610e596d1e400bf560015dfde01b76726158f974d22009bbaaa68f5d54f6"),
    (('mechanism', 'simulate', '--terminal', 'dormancy'), 0,
     "cb44c56a0ebc93233a3ed368c9507a464b1a60405103765ec993237f82e43c34"),
    (('mechanism', 'simulate', '--terminal', 'burn'), 0,
     "07d345e5b79661520e87bf0ed06ce7b78266498051ecfdfb7f1122f92609fdae"),
    (('mechanism', 'simulate', '--terminal', 'burn', '--retention', '0.02'), 0,
     "91433102d4d936a627faa0b87e4737cec9ac2e77f9f567bb9feb888bb62b8ef8"),
    # amounts in whole satoshis: a burn of 1147770.4, 987.12185184 and a dump of 1000.12345679
    (('mechanism', 'simulate', '--terminal', 'burn', '--retention', '0.0002'), 0,
     "0a923f9e8c1c63ecace6bb62875637efa00c993ba09a72e907e27638413988cf"),
    (('mechanism', 'simulate', '--terminal', 'burn', '--retention', '0.013', '--position', '1000.12345678'), 0,
     "4759151bf5f265d3f7a734aafa60329def3961d45856e6362abf8395fb93d5c5"),
    (('mechanism', 'simulate', '--terminal', 'adversarial', '--position', '1000.123456789'), 0,
     "b8919ac3dd0916be427a19e981b776a09de20ad31305d6d3ccfce55f93cd5a13"),
    (('mechanism', 'simulate', '--terminal', 'adversarial', '--interval', '90', '--grace', '2'), 0,
     "cf5a5220da332e88a8dc7b7b23a935bc3f7afe58fc87c37279943904ce52ee1a"),
    (('mechanism', 'simulate', '--terminal', 'liquidation'), 0,
     "4a6565fe0c140faf2ed81934d00371fe6dbce55d756e2b669540bdb2a8b6278e"),
    (('mechanism', 'simulate', '--terminal', 'liquidation', '--horizon', '4000', '--tranches-per-year', '4', '--program-years', '3'), 0,
     "eeb99f78e71b9c8b6bc8b3fa4c10326b14f214ab5beeac1a58578b713be29047"),
    (('mechanism', 'simulate', '--terminal', 'liquidation', '--tranches-per-year', '52', '--program-years', '3'), 0,
     "6f71633530da0b7aad0691b0b058c30436406c5be0a96719774c5b1678ed8cf8"),
    # daily tranches for a year, cut by the clock at epoch 100
    (('mechanism', 'simulate', '--terminal', 'liquidation', '--tranches-per-year', '365', '--program-years', '1', '--horizon', '100'), 0,
     "5d74db4cc68c0807873489824ed81548761fcfff225083e0a226b41b8ac93a78"),
    # simulate prints JSON lines already and takes no --json flag
    (('mechanism', 'simulate', '--terminal', 'liquidation', '--tranches-per-year', '365', '--program-years', '1', '--horizon', '100', '--json'), 2,
     "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
     "a201ce37158b9427b33ca7b6174865d419366c16c1a741ee6b57ff125f7385ce"),
    (('--seed', '11', 'mechanism', 'split', '--secret-hex', 'deadbeef', '-k', '2', '-n', '3'), 0,
     "745096c164b8d4e90e64e90694c125049428beac2bdf2fe4a52198f16dfcb1d2"),
    (('--seed', '7', 'mechanism', 'split', '--secret-hex', '00ff10203040', '-k', '3', '-n', '5'), 0,
     "c6afe0dff0e6564b806e4dd0d4fe03bdf6f1e69265af31998debd0079228b5a2"),
    (('mechanism', 'split', '--secret-hex', 'aa', '-k', '1', '-n', '1'), 0,
     "d9a39ddfa8d1c0856f222318c3a212523327289d8e86d246d249ce48702c2c7e"),
    (('mechanism', 'reconstruct', '-k', '2', '1:3943598e', '2:0b6a6b2d'), 0,
     "d4071ed3dffdb434e2dddb8836baffee74ec34e8ca7c85806b295f0ea60bc47f"),
    (('mechanism', 'reconstruct', '-k', '2', '3:ec848c4c', '1:3943598e'), 0,
     "d4071ed3dffdb434e2dddb8836baffee74ec34e8ca7c85806b295f0ea60bc47f"),
    (('mechanism', 'reconstruct', '-k', '3', '5:f6b3bc97ca4d', '2:7e109a39a64d', '4:1e61a931b4bf'), 0,
     "0cf3a399c9089fcd0798f18febc9962632c675edf87abaa86bec2b8e08c23366"),
    # a third share on the polynomial of the first two: the same secret
    (('mechanism', 'reconstruct', '-k', '2', '1:3943598e', '2:0b6a6b2d', '3:ec848c4c'), 0,
     "d4071ed3dffdb434e2dddb8836baffee74ec34e8ca7c85806b295f0ea60bc47f"),
    # sharding errors, a malformed share line among them
    (('mechanism', 'split', '--secret-hex', '', '-k', '1', '-n', '1'), 2,
     "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
     "76dad4bc8fb29ad8e1cf7bbe75b39186e3476e6b8b4e106685acd50cbc770201"),
    (('mechanism', 'split', '--secret-hex', 'aa', '-k', '3', '-n', '2'), 2,
     "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
     "5d2274b87a8f9bc6c262c90142f265344ea3c832058b92f39da49784975776c5"),
    (('mechanism', 'split', '--secret-hex', 'aa', '-k', '1', '-n', '256'), 2,
     "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
     "fa8c23c63ce64bb3a90165dfc4e02967044f392a00f8cf01b14924d49c2f06ba"),
    (('mechanism', 'reconstruct', '-k', '0', '1:aa'), 2,
     "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
     "f36f59b285b3418e5146c62105f84962e055f790043cb993a2aac1981d841e98"),
    (('mechanism', 'reconstruct', '-k', '2', '1:aa', '1:bb'), 2,
     "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
     "0a925d85b24889d1b1e9201085eee5fc1943cb60caa8ff8a5439e37fc0185e94"),
    (('mechanism', 'reconstruct', '-k', '2', '1:aa'), 2,
     "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
     "90d0d79eb5b1e6e1f04942ec64cf58bd026211da58ec2902d33a8f4560028643"),
    (('mechanism', 'reconstruct', '-k', '2', '1:aa', '2:bbcc'), 2,
     "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
     "39c75004530e28fdcaee13f47b7d5c03ea40739cd628809a6b2dc4e579c8364c"),
    (('mechanism', 'reconstruct', '-k', '1', '0:aa'), 2,
     "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
     "157ce88753492e8ada3e42fe5f2aee256cb9f6f97861265548e42ae780d488da"),
    (('mechanism', 'reconstruct', '-k', '1', '1:'), 2,
     "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
     "39c75004530e28fdcaee13f47b7d5c03ea40739cd628809a6b2dc4e579c8364c"),
    (('mechanism', 'reconstruct', '-k', '1', 'x:aa'), 2,
     "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
     "511f6254864f907bbae51766c931bfba6bd6f8b27d99ba44dcf2807b991d6020"),
    (('mechanism', 'reconstruct', '-k', '1', '1:zz'), 2,
     "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
     "792feb830651c9bd9901ec138e8fab59f697c8f3b4936cfce372854deeb0e89e"),
    (('mechanism', 'reconstruct', '-k', '1', '1'), 2,
     "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
     "90960a57906c6633172e839f438908e33c5afb74e34a8a55d6803b24b4d829a6"),
    (('mechanism', 'reconstruct', '-k', '1', '1:aa bb'), 2,
     "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
     "cc802bfd7cc4fdad38cd6c3efa96cb9a259d943a200ca87696a5461c92682362"),
    (('mechanism', 'reconstruct', '-k', '1', '+2:cc'), 2,
     "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
     "47293c5e156e87d42c16ce43247196e98abf1259528059d58b432fa4710a3d94"),
    # the third share's last byte flipped: it is off the polynomial of the first two
    (('mechanism', 'reconstruct', '-k', '2', '1:3943598e', '2:0b6a6b2d', '3:ec848c4d'), 2,
     "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
     "56d10763e4da6940ce56766cd4aa230e7b5d7592e1ad091b07b7502b7993dd0f"),
    (('mechanism', 'split', '--secret-hex', 'aa bb', '-k', '1', '-n', '1'), 2,
     "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
     "aa3af6494c045c205806dac193c9bd31d997f9cbb021e4dd97aa90da9f1bb928"),
    (('mechanism', 'split', '--secret-hex', 'zz', '-k', '1', '-n', '1'), 2,
     "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
     "0bdf3902c54b57caee1f5d16a203a29c2b1c7cf1c19e88f462279f852e9110e7"),
    (('frontier', '--total', '0'), 2,
     "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
     "3970d792ff1c9cc865a081d2fea89f5b353761edcf29d8e01ddc6e487b32406b"),
    (('frontier', '--tau', '0'), 2,
     "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
     "651df062067f845cf43ed5f1773a08f3000d9b86cdbdf0c9d19e932f55c65fcb"),
    # an integer is ASCII digits after at most one '-'; int() also takes each of
    # these, non-ASCII digits, an underscore, a '+' or a space, which exit 2
    (('--seed', '١', 'anchors'), 2,
     "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
     "4482a5386424edcbd21e1ef932fd709b10ea3ed61357831808b6b1502d87f69b"),
    (('frontier', '--periods', '٣'), 2,
     "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
     "1a435a18a4571f5306bdedba24640f5fa7b3267affa54f040c04bd1f7fe9db83"),
    (('frontier', '--periods', '1_0'), 2,
     "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
     "b5d61be63ab7a395f914f04059de299696b0a73c0de079d5bcbb76702e32ffe2"),
    (('schedule', '--tranches-per-year', '4_0', '--horizon', '1'), 2,
     "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
     "c025700645d064648cefdd4cb0b5c0df6a8c0aa9a9764faaef99b5cf41874270"),
    (('schedule', '--tranches-per-year', '4', '--horizon', '1', '--start', '+3'), 2,
     "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
     "99e849065fcc9fe79f508522a41928aea739b7f7b623c968119d73492a486060"),
    (('mechanism', 'simulate', '--terminal', 'adversarial', '--interval', ' 30'), 2,
     "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
     "9f9a0201b296ffde2229b6484db7c83ea20d1e20589e7b1e0151d3ab2593979e"),
    (('mechanism', 'simulate', '--terminal', 'burn', '--grace', '٣'), 2,
     "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
     "17d77eaf3e189cd92926048ea4a2f9b7032cf90e629abececcd432246d8af225"),
    (('mechanism', 'simulate', '--terminal', 'dormancy', '--horizon', '3_650'), 2,
     "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
     "807d57481950b989a917eebb2ae36933096e22a5d656bfe5d08da6fa50f7a9ce"),
    (('mechanism', 'simulate', '--terminal', 'liquidation', '--tranches-per-year', '+4'), 2,
     "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
     "d63ee6be4284596ec131260e067b9c00e1271d2a5ec965f189bbac664bc72986"),
    (('mechanism', 'split', '--secret-hex', 'aa', '-k', '١', '-n', '2'), 2,
     "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
     "6fe7018c8f432fd5e3ba1fb47ff0493f83dcb2bce6583bed72e64519fb8122a3"),
    (('mechanism', 'split', '--secret-hex', 'aa', '-k', '1', '-n', '٢'), 2,
     "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
     "15b4972b00498413449d23572f5f207e43c5eadda48ea6214a143a42048d5f33"),
    (('mechanism', 'reconstruct', '-k', '+1', '1:aa'), 2,
     "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
     "68f0059f9c3cdbb562989975f3f02f69b48f777dc155aafc49a55aa077183289"),
    (('scenario', 'Z'), 3,
     "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
     "285454475f6876a17d5bc6d8300843e6165742bba378c1ba2f1fb4e6366b50d9"),
    (('scenario',), 3,
     "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
     "e93779d227b8aa26c63d13de3f038c70f4ac3999f1b5e47a4fa88384ba944a41"),
    (('scenario', 'B', '--config', '{dir}/missing.ini'), 2,
     "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
     "31cf700619cc16c48181115ccff3f11ea2f1a0833515fef09bad6a390142cb66"),
    (('scenario', 'B', '--config', '{dir}/bad.ini'), 2,
     "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
     "7634fa797dd703ed4e70067260b93e4c404251248d65262715992be0602442ff"),
    (('impact', '--quality', 'bogus'), 2,
     "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
     "b56f9959b939e09717b25f711e906093dfba1787b0c1c107cdec4bdcaeef0ff4"),
    (('mechanism', 'simulate', '--terminal', 'bogus'), 2,
     "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
     "0d8940c6146f670f70bb98a9ef9ad912a5d507a73714cab97cec5832387e4ac1"),
    (('scenario', 'B', '--config', '{dir}/run.ini'), 2,
     "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
     "5a2f08c7a595834ce3cf3bb8bd69ab65e383302cb615044e0fea19e2669a0785"),
    (('scenario', 'Z', '--config', '{dir}/run.ini'), 2,
     "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
     "b50262df7922c493ef9d02f8daab1e14a7d3af5594d2265a39132782fdf3eb2c"),
]


EMPTY = hashlib.sha256(b"").hexdigest()

# numpy picks its exp, expm1, arcsinh and log kernels by CPU at import. Its
# baseline kernels give libm's bits; its AVX-512 ones differ from them in the
# last bit on some arguments, which a frontier printed in full (--json, --csv)
# shows. A digest above is that of the AVX-512 kernels; where the baseline
# kernels print other bytes, this maps it to theirs.
ON_BASELINE_KERNELS = {
    # frontier --lambdas 1e-6 --json, then --csv
    "45932acbbc3f84f197f2dbd440504bcb94b6753edbbf65e46cc6d2d014d455e2":
        "c254d2375dfd7f03e5ab3aea1716c109d92d688a0de23903ca66b0a66871883d",
    "b77c198f6c89d3630c63acd61615ee93c5483a69d9fea5f384eace0f3b87cf1c":
        "cc1b8ad855d15f9bf2390fce660fea33772d1eb1ee68428b79101d3aeec1285b",
    # frontier --lambdas 0,1e-6,1e-5 --periods 20 --json, then --csv
    "70212b1fdc9b077eaf9fb6dd3e58b290d61ec1178b08e6a2bfb57155c415be33":
        "99a1e7e12673330bf2bea1decd541285257cb608900f000815d10a0a0b088d0a",
    "fdc5914272c83bb2f55dc8190cf2daa773494c3a00899d77f2ad15f61d9bc024":
        "c5e01d0bf09417565c8743e50cd3a392dbac98a4051a30e5f1c227b276a0692c",
}
# NPY_DISABLE_CPU_FEATURES set to this turns numpy's AVX-512 kernels off
AVX512_FEATURES = "X86_V4 AVX512_ICL AVX512_SPR"


def numpy_kernels() -> str:
    """"baseline" if numpy's exp gives libm's bits on a fixed vector, else "avx512"."""
    probe = np.linspace(-20, 20, 401)
    return "baseline" if np.array_equal(np.exp(probe), list(map(math.exp, probe))) else "avx512"


NUMPY_KERNELS = numpy_kernels()


def pinned(digest: str, kernels: str = NUMPY_KERNELS) -> str:
    """The digest a row pins for the kernels numpy runs here."""
    return ON_BASELINE_KERNELS.get(digest, digest) if kernels == "baseline" else digest


def outputs_with_avx512_kernels_off(argvs):
    """The kernels probe and each argv's (exit code, stdout) from main, in a
    process whose numpy runs its baseline kernels."""
    script = (
        "import io, json, sys\n"
        "from overhang.cli import main\n"
        "from test_cli_golden import numpy_kernels\n"
        "runs = []\n"
        "for argv in json.loads(sys.argv[1]):\n"
        "    out = io.StringIO()\n"
        "    runs.append((main(argv, out=out), out.getvalue()))\n"
        "print(json.dumps([numpy_kernels(), runs]))\n"
    )
    tests = Path(__file__).resolve().parent
    env = dict(os.environ, NPY_DISABLE_CPU_FEATURES=AVX512_FEATURES, COLUMNS="80",
               PYTHONPATH=os.pathsep.join([str(tests.parent / "src"), str(tests)]))
    env.pop("OVERHANG_SEED", None)
    result = subprocess.run([sys.executable, "-c", script, json.dumps(argvs)], env=env,
                            capture_output=True, text=True, check=True)
    return json.loads(result.stdout)


@pytest.mark.parametrize(
    "argv, code, digest, stderr_digest",
    [(argv, code, pinned(digest), *(err or [EMPTY])) for argv, code, digest, *err in GOLDEN],
    ids=[" ".join(argv) for argv, *_ in GOLDEN],
)
def test_cli_golden(argv, code, digest, stderr_digest, tmp_path, monkeypatch, capsys):
    monkeypatch.delenv("OVERHANG_SEED", raising=False)
    monkeypatch.setenv("COLUMNS", "80")  # argparse wraps its usage to the terminal
    (tmp_path / "run.ini").write_text(INI_CONFIG)
    (tmp_path / "ledger.ini").write_text(LEDGER_CONFIG)
    (tmp_path / "run.json").write_text(JSON_CONFIG)
    (tmp_path / "bad.ini").write_text(BAD_KEY_CONFIG)
    out = io.StringIO()
    try:
        got = main([arg.format(dir=tmp_path) for arg in argv], out=out)
    except SystemExit as exc:
        got = exc.code
    assert got == code
    assert hashlib.sha256(out.getvalue().encode()).hexdigest() == digest
    stderr = capsys.readouterr().err.replace(str(tmp_path), "{dir}")
    assert hashlib.sha256(stderr.encode()).hexdigest() == stderr_digest, stderr


def test_baseline_kernel_digests_hold_with_numpy_avx512_kernels_off():
    # On an AVX-512 CPU the rows above check the AVX-512 digests in process;
    # this reruns each row with a baseline digest on the baseline kernels.
    rows = [(argv, code, digest) for argv, code, digest, *_ in GOLDEN
            if digest in ON_BASELINE_KERNELS]
    assert len(rows) == 4
    kernels, runs = outputs_with_avx512_kernels_off([list(argv) for argv, _, _ in rows])
    assert kernels == "baseline"
    for (argv, code, digest), (got, text) in zip(rows, runs):
        assert got == code, argv
        assert hashlib.sha256(text.encode()).hexdigest() == pinned(digest, "baseline"), argv
