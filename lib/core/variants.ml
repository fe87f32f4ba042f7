type manager = { name : string; config : Btsmgr.config; ms_opt : bool }

let resbm = { name = "ReSBM"; config = Btsmgr.resbm_config; ms_opt = false }

let resbm_max =
  {
    name = "ReSBM_max";
    config = { Btsmgr.resbm_config with min_level_bts = false };
    ms_opt = true;
  }

let resbm_eva =
  {
    name = "ReSBM_eva";
    config = { Btsmgr.resbm_config with smo_mode = Region_eval.Smo_eva };
    ms_opt = false;
  }

let resbm_pm =
  {
    name = "ReSBM_pm";
    config =
      {
        Btsmgr.resbm_config with
        min_level_bts = false;
        smo_mode = Region_eval.Smo_pars;
      };
    ms_opt = true;
  }

let fhelipe =
  {
    name = "Fhelipe";
    config =
      {
        min_level_bts = false;
        smo_mode = Region_eval.Smo_eva;
        bts_mode = Region_eval.Bts_region_end;
        price_transits = true;
      };
    ms_opt = true;
  }

let dacapo_like =
  {
    name = "DaCapo-like";
    config =
      {
        min_level_bts = false;
        smo_mode = Region_eval.Smo_pars;
        bts_mode = Region_eval.Bts_region_end;
        price_transits = true;
      };
    ms_opt = true;
  }

let all = [ resbm; resbm_eva; resbm_max; resbm_pm; fhelipe; dacapo_like ]
let figure6 = [ resbm; resbm_eva; resbm_max; resbm_pm; fhelipe ]

let by_name name =
  List.find_opt (fun m -> String.lowercase_ascii m.name = String.lowercase_ascii name) all

let compile ?verify_each ?certify ?jobs:_ ?cache m prm g =
  Driver.compile ~config:m.config ~name:m.name ~ms_opt:m.ms_opt ?verify_each ?certify
    ?cache prm g
