(* Prints the profile-facts rendering of the suite (see {!Profile_facts}). *)
let () = print_string (Profile_facts.render ())
