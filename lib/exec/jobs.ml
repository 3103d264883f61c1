let recommended () = Domain.recommended_domain_count ()
