(** Short-lived speculation module (factored, §4.2.4).

    The lifetime profiler marks heap allocation sites whose objects never
    outlive the loop iteration that allocated them. Accesses to such
    objects cannot carry cross-iteration dependences. Containment is
    premise-queried (points-to answers; its prohibitive assertion is
    replaced), and validation is: separate the site into its own heap,
    heap-check the guarded pointers, and check the allocation/free balance
    at every iteration end. Short-lived and read-only site sets are
    disjoint by construction, so their separations never conflict. *)

open Scaf
open Scaf_cfg
open Scaf_profile
open Scaf_analysis

let sl_sites (profiles : Profiles.t) (lid : string) : Site.t list =
  List.filter
    (fun (s : Site.t) ->
      Lifetime_profile.short_lived profiles.Profiles.lifetime ~lid s)
    (Lifetime_profile.sites_of_loop profiles.Profiles.lifetime ~lid)

let assertions_for (profiles : Profiles.t) ~(lid : string) ~(site : Site.t)
    ~(guards : int list) : Assertion.t list =
  let iters = Time_profile.iterations profiles.Profiles.time ~lid in
  let guard_cost =
    List.fold_left
      (fun acc g ->
        acc
        +. Cost_model.scaled Cost_model.heap_check
             (Residue_profile.exec_count profiles.Profiles.residues g))
      0.0 guards
  in
  [
    {
      Assertion.module_id = "short-lived";
      points = guards;
      cost = guard_cost;
      conflicts = Sep_util.site_conflicts [ site ];
      payload =
        Assertion.Heap_separate
          {
            loop = lid;
            sites = Sep_util.site_conflicts [ site ];
            gsites = Sep_util.site_globals [ site ];
            heap = Assertion.Short_lived_heap;
            inside = guards;
            outside = [];
          };
    };
    {
      Assertion.module_id = "short-lived";
      points = [];
      cost = Cost_model.scaled Cost_model.iter_check iters;
      conflicts = [];
      payload =
        Assertion.Short_lived_balance
          { loop = lid; sites = Sep_util.site_conflicts [ site ] };
    };
  ]

let answer (prog : Progctx.t) (profiles : Profiles.t) (ctx : Module_api.Ctx.t)
    (q : Query.t) : Response.t =
  match q with
  | Query.Alias _ -> Module_api.no_answer q
  | Query.Modref mq -> (
      match (mq.Query.mtr, mq.Query.mloop, mq.Query.mtarget) with
      | (Query.Before | Query.After), Some lid, Query.TInstr i2 -> (
          let i1 = mq.Query.minstr in
          (* a dependence needs at least one store *)
          let has_store =
            match (Autil.rw_of_instr prog i1, Autil.rw_of_instr prog i2) with
            | `Store, (`Load | `Store) | `Load, `Store -> true
            | _ -> false
          in
          if not has_store then Module_api.no_answer q
          else
            match sl_sites profiles lid with
            | [] -> Module_api.no_answer q
            | sites -> (
                (* either endpoint inside a short-lived object kills the
                   cross-iteration dependence *)
                let attempt side =
                  match Autil.loc_of_instr prog side with
                  | None -> None
                  | Some loc -> (
                      match
                        Sep_util.find_containing_site ctx prog ~loop:lid
                          ?cc:mq.Query.mcc ~epoch:mq.Query.mepoch loc sites
                      with
                      | Some (site, presp) ->
                          (* only the side shown to live in the short-lived
                             object needs a heap check: whatever aliases it
                             dies with the iteration too *)
                          Some
                            {
                              Response.result =
                                Aresult.RModref Aresult.NoModRef;
                              options =
                                [
                                  assertions_for profiles ~lid ~site
                                    ~guards:[ side ];
                                ];
                              provenance = presp.Response.provenance;
                            }
                      | None -> None)
                in
                match attempt i1 with
                | Some r -> r
                | None -> (
                    match attempt i2 with
                    | Some r -> r
                    | None -> Module_api.no_answer q)))
      | _ -> Module_api.no_answer q)

let create (profiles : Profiles.t) : Module_api.t =
  let prog = profiles.Profiles.ctx in
  Module_api.make ~name:"short-lived" ~kind:Module_api.Speculation
    ~factored:true (fun ctx q -> answer prog profiles ctx q)
