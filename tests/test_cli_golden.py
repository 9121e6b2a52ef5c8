"""Golden CLI output: the exit code and the sha256 of stdout for each argv.

The table pins what the CLI prints byte for byte, over every subcommand in
each output format, config files in both syntaxes, seeded sharding and each
replayed terminal state. Change a digest only for an output change that is
intended and recorded in CHANGES.md.
"""

import hashlib
import io

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

# (argv, exit code, sha256 of stdout); "{dir}" is the directory holding the
# config files above.
GOLDEN = [
    (('impact',), 0,
     "e333327a5100473f1230f4ad4481e5f758dab955a1b41ce5559228dd627daccf"),
    (('impact', '--json'), 0,
     "995d5373be25c3a9efb3db6e6ecceff7e3abcea90be3aaa54eecccb358f63bdd"),
    (('impact', '--csv'), 0,
     "48cd82a6d9ba18763bea106ac9de6a177815e518298488c148476ecac715afab"),
    (('impact', '--markdown'), 0,
     "3983fb060a2acc30993e81d40110c93901b0b6c980117f37b50eee11f8742ecb"),
    (('impact', '--table'), 0,
     "474ec8fbdaf975de5cb8ee12f6ddd6f5ae0b0b3f190dd08a560612128a9f52b2"),
    (('impact', '--table', '--json'), 0,
     "b8a1c66509763d0f51e98a8619ca16e253df158ec42651350524b0360d1cfda8"),
    (('impact', '--table', '--csv'), 0,
     "441600f9def5301d90efb84b60213c4b8330028928feb7c3d20b844a2d25bd5a"),
    (('impact', '--table', '--markdown'), 0,
     "acd5808b1fe1f7ab1a1234e41bcb8ee55f83ea522440a37e7655eb31849ede9c"),
    (('impact', '--table', '--share', '0.05', '--quality', 'public-venue', '--participation', '0.004'), 0,
     "463aa769e3c9c10da3493084b00fff1b094f21956dbbcf7ad1c6eedd52161fae"),
    (('impact', '--table', '--share', '0.05', '--quality', 'public-venue', '--participation', '0.004', '--json'), 0,
     "f9e80e4ff31c0a5a0e32b7ac58d7145ddb9f175cd2368fd06afdfbc8987cc6eb"),
    (('impact', '--table', '--share', '0.05', '--quality', 'public-venue', '--participation', '0.004', '--csv'), 0,
     "ee1876aff24be2551f814c9087379f82e8026c7252b0b8c0b53b4d366ceb71f8"),
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
     "a0ea49a4f6db376be990f69633533e3a82ca5fdc07bb175060f4448515dc03c2"),
    (('scenario', 'A', '--csv'), 0,
     "c820a3d8f2a12237970d961867e64296cde542a833d5ef1d6c9d013407cda19e"),
    (('scenario', 'A', '--markdown'), 0,
     "363bcd176b99d51f1ea0cefe121265cc17ef39204fe95f4f222af9584edce81e"),
    (('scenario', 'B'), 0,
     "574dab7bde0310b2c3166968f7b38bd50579f5ac198be6d734faa55725700e3d"),
    (('scenario', 'B', '--json'), 0,
     "a1505a3ce21a43ed39e6a1b3dc66466fd657ddcd977b7e27a1220ebd145bd131"),
    (('scenario', 'B', '--csv'), 0,
     "10d91d2dcfd8faa35edac71dc3395910d8601723d59402978180aa8df2143a11"),
    (('scenario', 'B', '--markdown'), 0,
     "67d3eab70e66ea24d7e2b9f169c2c1ea61533970201d95229c12bd8fc8f793db"),
    (('scenario', 'C', '--nominal'), 0,
     "64479fedc127db6558a8c6d19b641de4c94d66c337ee19f4857ac374c6543f59"),
    (('scenario', 'C', '--nominal', '--json'), 0,
     "bd3eb64f78ec9bad72eb119412d255332f45ba5ae89304227e05a7468765d38b"),
    (('scenario', 'C', '--nominal', '--csv'), 0,
     "a4eb5f0d9391db2d563dfc3f353bbc83b820d4ffdd50896d341e8688dbacceaf"),
    (('scenario', 'C', '--nominal', '--markdown'), 0,
     "bedd7d46c494679a3dd651efc26cd8fea78844e2cc5ee5428ff3cde59bc29b28"),
    (('scenario', 'B', '--volume', '20e9'), 0,
     "9ffaf8e3ae643f88502c91a28dc09233a08a0dfcdce2fd762a38f1a0482fcc60"),
    (('scenario', 'B', '--volume', '20e9', '--json'), 0,
     "8798162c67f8904130080fc1cb95fecd2a4d687b1a768cc412a037cd2c162e5a"),
    (('scenario', 'B', '--volume', '20e9', '--csv'), 0,
     "4a9a5d3c0d69ff6b6fc9ad58543389440ca2d10659246ab2045c46ff9c64ddfe"),
    (('scenario', 'B', '--volume', '20e9', '--markdown'), 0,
     "4af9a3e4a49a16c70da36d84542256f560407f28e6ead61acd20c3c773ff2d03"),
    (('scenario', 'sweep'), 0,
     "e3f856003058db651c3ef8c482b82218bf48188f9f4606c4bf0e76d43fbfcad4"),
    (('scenario', 'sweep', '--json'), 0,
     "a6a3551a6c38aa0bbbe6edc7f7fe10a39865f7850845ca762b6d3b2a5323d1e1"),
    (('scenario', 'sweep', '--csv'), 0,
     "c68d95ae5fdc723bd7052952b306292eaf3dca69345000f0ef467b66fe90fc15"),
    (('scenario', 'sweep', '--markdown'), 0,
     "a068026f25d73370cb343328010dd95bbf14dc3ba96f4f47a95f59ce6239b4a5"),
    (('scenario', 'sweep', '--epsilons', '0.5,1.0', '--horizons', '5,10'), 0,
     "7544f3036462687d10b35220f64b296ecaf411671e2414fed23b2bc7c250c3fe"),
    (('scenario', 'sweep', '--epsilons', '0.5,1.0', '--horizons', '5,10', '--json'), 0,
     "5e107caaf4278088df98a31d4426606f0fef7582388e5fe1aabd1abb1368e48e"),
    (('scenario', 'sweep', '--epsilons', '0.5,1.0', '--horizons', '5,10', '--csv'), 0,
     "dd28caeb3c7d5283419490912b84fa4b2615b5ea300705e7e9a32654bc6e0b66"),
    (('scenario', 'sweep', '--epsilons', '0.5,1.0', '--horizons', '5,10', '--markdown'), 0,
     "38b6abd3ee13a1afad4313f441618e2756794adfb8996ebb488071b28fa06005"),
    (('scenario', 'sweep', '--epsilons', '0.2,2.5', '--allow-out-of-range'), 0,
     "593f414c21e32f52eb57b22b23a913d4673523bc36a563cda61dacae1c6ebfd5"),
    (('scenario', 'sweep', '--epsilons', '0.2,2.5', '--allow-out-of-range', '--json'), 0,
     "31ce985a3a900fbd04ce3b477b8f39a6738447d3647afce5869a1fac348629f9"),
    (('scenario', 'sweep', '--epsilons', '0.2,2.5', '--allow-out-of-range', '--csv'), 0,
     "eb9bb9714c43bac15db5a3a527ded2cd58c1d8cc9b078f6d064a803cabcaeda7"),
    (('scenario', 'sweep', '--epsilons', '0.2,2.5', '--allow-out-of-range', '--markdown'), 0,
     "42388ebc4c426429513da37f118f7a5cac04eab43bcd1ac452aa722493b8dbcc"),
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
     "f7beb0763764c7b25906941e192bcab3ec212cd7f2c78df32284c57b7781d861"),
    (('scenario', '--config', '{dir}/run.json', '--csv'), 0,
     "f4e17ce7b741669a175d2b8064d47febd61d2f69aea9bc1137479e56b86d86dd"),
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
    (('frontier',), 0,
     "5996a2fb2d6698a3ace95dfc47e397ee4b271b1e2e01936f3b0cb7ef16f222ff"),
    (('frontier', '--json'), 0,
     "0c9295e73f6a49e238a6b6b57e84d2caa86a81f0344827c326117776f4246a44"),
    (('frontier', '--csv'), 0,
     "01afc920222108c499218fdec391452c779eb55b997e6fbce811dd093ca0700a"),
    (('frontier', '--markdown'), 0,
     "e18bcf9c380d5ce9fe9a44fa4169ddfc848f84732c1e8872a11f95b00a18ee1d"),
    (('frontier', '--lambdas', '1e-6'), 0,
     "299c578464a56ef33c2fb12a15b8b203b3962dd3c92a6cbc3ffc4ba17bc4700b"),
    (('frontier', '--lambdas', '1e-6', '--json'), 0,
     "1eb7cb2e4307da6d67590861e467829968853b6ef3e9a0385327c2c0a2a41c5f"),
    (('frontier', '--lambdas', '1e-6', '--csv'), 0,
     "b221c46f9d6b7a346961c2ec2975442ab9ed1b1cb4ae1daa41b21166e37af635"),
    (('frontier', '--lambdas', '1e-6', '--markdown'), 0,
     "f40c2bb7d17a358a3327e29ef8c87766205a45247db92b6616ce758841ed7d72"),
    (('frontier', '--lambdas', '0,1e-6,1e-5', '--periods', '20'), 0,
     "028719ca9986ed711e6500cc7d5616ff2cf9f221a3fb94a9ff5fc717c88646a2"),
    (('frontier', '--lambdas', '0,1e-6,1e-5', '--periods', '20', '--json'), 0,
     "e092964eeaf68747e16a55da3db7e4da8fc498757b4cac44f4fbf3c3eedafe09"),
    (('frontier', '--lambdas', '0,1e-6,1e-5', '--periods', '20', '--csv'), 0,
     "b3a0df64615021e8875fef81014d54d32bedb5b462f1939ce2038032a45fe1ad"),
    (('frontier', '--lambdas', '0,1e-6,1e-5', '--periods', '20', '--markdown'), 0,
     "3267a33a4fa445ca433fc20f99b34a88a5d1c3556025908b50740c779ff66256"),
    (('decision-map',), 0,
     "142cf685663ed2561bb663b179d5506e1aaeec1eb590e6c4326a2d04255f586d"),
    (('decision-map', '--json'), 0,
     "54a2c969e00a45310d6a2a4da0ceb4bcd55a1fa01b14b52c6e3d2aca184ebf50"),
    (('decision-map', '--csv'), 0,
     "8b92c34ae42d938e057455e460d6740cdef875516a571b183b0a9075bca5c94b"),
    (('decision-map', '--markdown'), 0,
     "a1cc354da8d164d860bb1cce601f344d7a124c95239181cf76f9d836fdc8695e"),
    (('decision-map', '--retention-variant'), 0,
     "c4acdb891fadd9348c0e96e1ca40c357eed244aeec3940db25a60e20c93b7465"),
    (('decision-map', '--retention-variant', '--json'), 0,
     "fd400548a084ca47ed2cd6f7e41e60cc5f32c8ca090810fa4c8bfd7a320fd549"),
    (('decision-map', '--retention-variant', '--csv'), 0,
     "708442537c1572967da6b9096d5682e7eea1f95d14b0ee0a5d354e57b14745db"),
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
     "54a2c969e00a45310d6a2a4da0ceb4bcd55a1fa01b14b52c6e3d2aca184ebf50"),
    (('scenario', 'B', '--emit-config'), 0,
     "4a3b0a27dfe854d37d4aeab59efb502b6ad5ac91ffd019b30b0040c717ebdbb9"),
    (('scenario', '--config', '{dir}/run.ini', '--emit-config'), 0,
     "fab13a79c16b65c056b059bc5a90da4c6ae54d3bf9337798fddd0cc5068cc158"),
    (('scenario', '--config', '{dir}/run.json', '--emit-config'), 0,
     "4109f821bbfaed2db3ce769c750735eaad8a07436d27b76ffacecfe1bc21fc2e"),
    (('scenario', 'sweep', '--config', '{dir}/run.ini', '--json'), 2,
     "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    (('scenario', 'sweep', '--config', '{dir}/ledger.ini', '--json'), 0,
     "a6a3551a6c38aa0bbbe6edc7f7fe10a39865f7850845ca762b6d3b2a5323d1e1"),
    (('mechanism', 'simulate', '--terminal', 'dormancy'), 0,
     "cb44c56a0ebc93233a3ed368c9507a464b1a60405103765ec993237f82e43c34"),
    (('mechanism', 'simulate', '--terminal', 'burn'), 0,
     "07d345e5b79661520e87bf0ed06ce7b78266498051ecfdfb7f1122f92609fdae"),
    (('mechanism', 'simulate', '--terminal', 'burn', '--retention', '0.02'), 0,
     "91433102d4d936a627faa0b87e4737cec9ac2e77f9f567bb9feb888bb62b8ef8"),
    (('mechanism', 'simulate', '--terminal', 'adversarial', '--interval', '90', '--grace', '2'), 0,
     "cf5a5220da332e88a8dc7b7b23a935bc3f7afe58fc87c37279943904ce52ee1a"),
    (('mechanism', 'simulate', '--terminal', 'liquidation'), 0,
     "4a6565fe0c140faf2ed81934d00371fe6dbce55d756e2b669540bdb2a8b6278e"),
    (('mechanism', 'simulate', '--terminal', 'liquidation', '--horizon', '4000', '--tranches-per-year', '4', '--program-years', '3'), 0,
     "eeb99f78e71b9c8b6bc8b3fa4c10326b14f214ab5beeac1a58578b713be29047"),
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
    (('scenario', 'Z'), 3,
     "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    (('scenario',), 3,
     "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    (('scenario', 'B', '--config', '{dir}/missing.ini'), 2,
     "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    (('scenario', 'B', '--config', '{dir}/bad.ini'), 2,
     "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    (('impact', '--quality', 'bogus'), 2,
     "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    (('mechanism', 'simulate', '--terminal', 'bogus'), 2,
     "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    (('scenario', 'B', '--config', '{dir}/run.ini'), 2,
     "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    (('scenario', 'Z', '--config', '{dir}/run.ini'), 2,
     "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
]


@pytest.mark.parametrize(
    "argv, code, digest", GOLDEN, ids=[" ".join(argv) for argv, _, _ in GOLDEN]
)
def test_cli_golden(argv, code, digest, tmp_path, monkeypatch):
    monkeypatch.delenv("OVERHANG_SEED", raising=False)
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
